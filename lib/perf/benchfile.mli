(** BENCH_*.json files: the machine-readable benchmark format written
    by [bench/main.exe json] and read by [riskroute bench-compare].

    Schema 6 is statistics-aware: each kernel row carries mean/p50/p95
    over N repetitions plus per-run GC allocation deltas, and the meta
    block is self-describing (OCaml version, word size, resolved pool
    size, engine cache hit/miss totals, effective tree-LRU capacity,
    the PoP counts of the large-topology query kernels, and GC pause
    p50/p99 in ns for minor and major collections from the
    Runtime_events consumer) so baselines stay comparable across
    machines.
    Older files remain readable: schema-5 metas default the GC-pause
    quantiles to 0, schema-4 metas default the tree-cache/topology
    fields, schema-3 metas default the cache totals to 0, and schema-2
    files (single Bechamel OLS estimate per kernel) reuse the one
    estimate for every statistic. *)

type meta = {
  schema : int;
  domains : int;  (** resolved pool size the run actually used *)
  git_rev : string;
  hostname : string;
  ocaml_version : string;
  word_size : int;
  riskroute_domains : string;  (** raw RISKROUTE_DOMAINS value, "" if unset *)
  reps : int;
  warmups : int;
  cache_hits : int;
      (** total engine artifact-cache hits ([engine.cache.env_hit] +
          [engine.cache.tree_hit]) observed over the recorded run *)
  cache_misses : int;  (** same, for [engine.cache.*_miss] *)
  tree_cache_cap : int;
      (** effective tree-LRU capacity ([RISKROUTE_TREE_CACHE] after
          validation) the run used; 0 in pre-5 files *)
  topology_pops : string;
      (** PoP counts of the large-topology query kernels, comma-joined
          (e.g. ["1000,10000,50000"]); [""] in pre-5 files *)
  gc_minor_pause_p50_ns : float;
      (** minor-GC pause p50 (ns) over the recorded run, from the
          Runtime_events consumer; [0.] when the runtime refused the
          consumer, or pre-6 *)
  gc_minor_pause_p99_ns : float;
  gc_major_pause_p50_ns : float;
  gc_major_pause_p99_ns : float;
}

type result = {
  name : string;
  reps : int;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  min_ns : float;
  max_ns : float;
  gc_minor_words : float;  (** mean minor words allocated per run *)
  gc_major_words : float;
}

type file = { meta : meta; results : result list }

val schema : int
(** The schema this module writes (6). *)

val to_json_string : file -> string

val of_json_string : string -> (file, string) Stdlib.result

val write : string -> file -> unit

val read : string -> (file, string) Stdlib.result
(** [read path] loads and parses; IO errors become [Error]. *)

val find : file -> string -> result option
