module Json = Rr_obs.Json

type meta = {
  schema : int;
  domains : int;
  git_rev : string;
  hostname : string;
  ocaml_version : string;
  word_size : int;
  riskroute_domains : string;
  reps : int;
  warmups : int;
  cache_hits : int;   (* engine.cache.* hits observed during the run *)
  cache_misses : int;
  tree_cache_cap : int;   (* effective RISKROUTE_TREE_CACHE after validation *)
  topology_pops : string; (* PoP counts of the large-topology kernels, comma-joined *)
  (* GC pause quantiles (ns) over the whole recorded run, from the
     Runtime_events consumer; 0 when the consumer was off (pre-6 files,
     or a run without --series). *)
  gc_minor_pause_p50_ns : float;
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
  gc_minor_words : float;
  gc_major_words : float;
}

type file = { meta : meta; results : result list }

let schema = 6

let to_json_string f =
  let m = f.meta in
  let result r =
    Json.Obj
      [
        ("name", Json.Str r.name);
        ("reps", Json.Int r.reps);
        ("mean_ns", Json.Num r.mean_ns);
        ("p50_ns", Json.Num r.p50_ns);
        ("p95_ns", Json.Num r.p95_ns);
        ("min_ns", Json.Num r.min_ns);
        ("max_ns", Json.Num r.max_ns);
        ("gc_minor_words", Json.Num r.gc_minor_words);
        ("gc_major_words", Json.Num r.gc_major_words);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "meta",
           Json.Obj
             [
               ("schema", Json.Int m.schema);
               ("domains", Json.Int m.domains);
               ("git_rev", Json.Str m.git_rev);
               ("hostname", Json.Str m.hostname);
               ("ocaml_version", Json.Str m.ocaml_version);
               ("word_size", Json.Int m.word_size);
               ("riskroute_domains", Json.Str m.riskroute_domains);
               ("reps", Json.Int m.reps);
               ("warmups", Json.Int m.warmups);
               ("cache_hits", Json.Int m.cache_hits);
               ("cache_misses", Json.Int m.cache_misses);
               ("tree_cache_cap", Json.Int m.tree_cache_cap);
               ("topology_pops", Json.Str m.topology_pops);
               ("gc_minor_pause_p50_ns", Json.Num m.gc_minor_pause_p50_ns);
               ("gc_minor_pause_p99_ns", Json.Num m.gc_minor_pause_p99_ns);
               ("gc_major_pause_p50_ns", Json.Num m.gc_major_pause_p50_ns);
               ("gc_major_pause_p99_ns", Json.Num m.gc_major_pause_p99_ns);
             ] );
         ("results", Json.Arr (List.map result f.results));
       ])

let num ?default j key =
  match Option.bind (Json.member key j) Json.to_num with
  | Some v -> Ok v
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing numeric field %S" key))

let str ?default j key =
  match Option.bind (Json.member key j) Json.to_str with
  | Some v -> Ok v
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing string field %S" key))

let ( let* ) = Result.bind

let result_of_json j =
  let* name = str j "name" in
  match Option.bind (Json.member "ns_per_run" j) Json.to_num with
  | Some est ->
    (* Schema 2: a single OLS estimate stands in for every statistic. *)
    Ok
      {
        name;
        reps = 1;
        mean_ns = est;
        p50_ns = est;
        p95_ns = est;
        min_ns = est;
        max_ns = est;
        gc_minor_words = 0.0;
        gc_major_words = 0.0;
      }
  | None ->
    let* reps = num j "reps" in
    let* mean_ns = num j "mean_ns" in
    let* p50_ns = num j "p50_ns" in
    let* p95_ns = num j "p95_ns" in
    let* min_ns = num ~default:p50_ns j "min_ns" in
    let* max_ns = num ~default:p95_ns j "max_ns" in
    let* gc_minor_words = num ~default:0.0 j "gc_minor_words" in
    let* gc_major_words = num ~default:0.0 j "gc_major_words" in
    Ok
      {
        name;
        reps = int_of_float reps;
        mean_ns;
        p50_ns;
        p95_ns;
        min_ns;
        max_ns;
        gc_minor_words;
        gc_major_words;
      }

let of_json_string text =
  let* j = Json.parse text in
  let meta_j =
    match Json.member "meta" j with Some m -> m | None -> Json.Obj []
  in
  let* schema_v = num ~default:0.0 meta_j "schema" in
  let* domains = num ~default:1.0 meta_j "domains" in
  let* git_rev = str ~default:"unknown" meta_j "git_rev" in
  let* hostname = str ~default:"unknown" meta_j "hostname" in
  let* ocaml_version = str ~default:"" meta_j "ocaml_version" in
  let* word_size = num ~default:0.0 meta_j "word_size" in
  let* riskroute_domains = str ~default:"" meta_j "riskroute_domains" in
  let* reps = num ~default:1.0 meta_j "reps" in
  let* warmups = num ~default:0.0 meta_j "warmups" in
  let* cache_hits = num ~default:0.0 meta_j "cache_hits" in
  let* cache_misses = num ~default:0.0 meta_j "cache_misses" in
  let* tree_cache_cap = num ~default:0.0 meta_j "tree_cache_cap" in
  let* topology_pops = str ~default:"" meta_j "topology_pops" in
  let* gc_minor_pause_p50_ns = num ~default:0.0 meta_j "gc_minor_pause_p50_ns" in
  let* gc_minor_pause_p99_ns = num ~default:0.0 meta_j "gc_minor_pause_p99_ns" in
  let* gc_major_pause_p50_ns = num ~default:0.0 meta_j "gc_major_pause_p50_ns" in
  let* gc_major_pause_p99_ns = num ~default:0.0 meta_j "gc_major_pause_p99_ns" in
  let* rows =
    match Option.bind (Json.member "results" j) Json.to_arr with
    | Some l -> Ok l
    | None -> Error "missing \"results\" array"
  in
  let* results =
    List.fold_left
      (fun acc row ->
        let* acc = acc in
        let* r = result_of_json row in
        Ok (r :: acc))
      (Ok []) rows
  in
  Ok
    {
      meta =
        {
          schema = int_of_float schema_v;
          domains = int_of_float domains;
          git_rev;
          hostname;
          ocaml_version;
          word_size = int_of_float word_size;
          riskroute_domains;
          reps = int_of_float reps;
          warmups = int_of_float warmups;
          cache_hits = int_of_float cache_hits;
          cache_misses = int_of_float cache_misses;
          tree_cache_cap = int_of_float tree_cache_cap;
          topology_pops;
          gc_minor_pause_p50_ns;
          gc_minor_pause_p99_ns;
          gc_major_pause_p50_ns;
          gc_major_pause_p99_ns;
        };
      results = List.rev results;
    }

let write path f =
  let oc = open_out path in
  output_string oc (to_json_string f);
  close_out oc

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | exception End_of_file -> Error (path ^ ": truncated read")
  | text -> (
    match of_json_string text with
    | Ok f -> Ok f
    | Error e -> Error (path ^ ": " ^ e))

let find f name = List.find_opt (fun r -> r.name = name) f.results
