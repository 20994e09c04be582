(* perfbench — end-to-end benchmark of the three riskroute user commands.

     main.exe --workload <name> --seed N --seconds S --trace 0|1
              [--rev REV] [--record]

   Normally started through run.py, which builds this executable first
   and runs it from the root of the source tree. A run is one process,
   with a domain pool of min(2, nproc): set-up (the shared corpus,
   riskmap and census, plus the workload's own artifacts, under a cold
   engine context), one measured phase of rounds, and the
   correctness checks against the references in perfbench/refs. The
   last stdout line is the result:
   {"correct", "attempted", "failed", "metrics"}, holding every
   end-to-end metric with --trace 0 and every per-layer metric with
   --trace 1 (totals over the measured phase; layers a workload does
   not exercise read 0). Earlier lines
   give a readable summary (including error_rate), the environment
   record and, when traced, the span rollup. --record rewrites the
   references from the program as it stands instead of checking them.

   End-to-end metrics (--trace 0, tracing off): setup_s, run_cpu_s (the
   timed region of a round), peak_rss_mb (VmHWM), op_cpu_p50_ms and
   op_cpu_p99_ms over the operations of a round — one route request,
   the report pass or one storm replay, i.e. one thing a user waits
   for; the summary states the sample counts. Every time is processor
   time of the whole process (every domain and thread, user plus
   system; see cpuclock.c), not wall time: on a share of a host whose
   other tenants take its processors for seconds at a time, wall time
   measures them. On a 2-core machine with two busy loops running
   beside it, a report pass took 66 s of wall time instead of 34 s but
   48.2 s of processor time instead of 46.9 s. The price: work spread
   over more domains shows only the overhead it adds, not the wall
   time it saves; the per-layer wall.setup_s and wall.run_s keep the
   wall figures. error_rate (failed / attempted operations) is printed
   with the summary; it is 0 when the program is correct.

   Workloads, why each was chosen, and which layer metric should move
   which end-to-end metric:

   - report-all: one pass of every Report.all experiment (table1 ...
     fig13 and the abl- studies), the `riskroute report all` analysts
     wait for. The only workload where KDE, Env, Ratios, Augment,
     Peer_advisor and the domain pool do most of the work; the Query
     facade does almost none. One round, whose one op is the whole pass
     (so op_cpu_p50_ms = op_cpu_p99_ms = run_cpu_s); the 30 experiments
     are checked one by one. experiments.<id>_s, the kde.grid_fit /
     env.of_net / ratios.* / augment.greedy / census.assign span
     rollups, engine.* cache deltas, parallel.* and gc.* move run_cpu_s
     (parallel.utilization and wall.run_s also show what the pool saves
     in wall time, which run_cpu_s does not); the set-up layers
     (topology.zoo_s, disaster.riskmap_s, census.blocks_s,
     core.interdomain_s) move setup_s.

   - continental-route: closed-loop `riskroute route` requests on
     continental-10000 from one client thread, in rounds of 2000
     requests (so a round's p99 has 20 samples beyond it), as many as
     start within --seconds (at least 4); a round's timed region is its
     requests. Each request takes a seeded pair from a fixed pool of
     1024 connected PoP pairs (so every answer has a stored reference)
     and runs a bit-miles and a bit-risk-miles query through
     Query.run_stats, as the CLI does. Landmarks are prepared in set-up.
     Rr_graph (ALT/bidir/plain) does nearly all the work; the engine
     cache is only read and KDE appears only in set-up. graph.query_s,
     graph.settled_miles, graph.settled_risk and graph.runner_* move
     op_cpu_p50_ms, op_cpu_p99_ms and run_cpu_s; gc.* moves
     op_cpu_p99_ms and peak_rss_mb; topology.continental_s and
     graph.prepare_s move setup_s.

   - storm-replay: Replay.run in incremental mode over irene, katrina
     and sandy on continental-10000 with 64 flows, a fresh engine
     context per storm, in 2 rounds whose timed regions are the three
     Replay.run calls. Same Env and engine-cache layers as the other
     two, but written to (Env.patch, Dijkstra.repair, tree migration
     and eviction) as well as read, so a gain for read-only routing
     that costs the delta path shows here. Ops are storms.
     replay.<storm>_s, replay.envs_*, replay.patched_arcs,
     replay.settled_nodes, replay.trees_*, replay.tree_reuse_ratio and
     engine.* move run_cpu_s and op_cpu_p99_ms; topology.continental_s
     moves setup_s.

   obs.trace_overhead_pct compares the traced run's processor time per
   op with that of untraced runs of the same workload: the median of those
   recorded in .perfbench by earlier --trace 0 runs in this checkout,
   or, when there are none yet, one untraced pass made after the traced
   one in the same process. *)

let now = Unix.gettimeofday

(* Processor seconds of the whole process (see cpuclock.c). *)
external cpu : unit -> float = "perfbench_process_cpu"

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

(* --- command line --- *)

let workload = ref ""
let seed = ref (-1)
let seconds = ref 0.0
let trace = ref (-1)
let rev = ref ""
let record = ref false

let refs_dir = "perfbench/refs"

(* Per-checkout state kept between runs; git ignores it. *)
let state_dir = ".perfbench"

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME report-all | continental-route | storm-replay" );
      ("--seed", Arg.Set_int seed, "N workload seed");
      ( "--seconds",
        Arg.Set_float seconds,
        "S length of the time-bounded (continental-route) measured phase" );
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--rev", Arg.Set_string rev, "REV source revision to record");
      ( "--record",
        Arg.Set record,
        " rewrite the references instead of checking them" );
    ]
    (fun a -> fail "perfbench: unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    fail "perfbench: need --seed N>=0, --seconds S>0 and --trace 0|1"

let traced = !trace = 1

(* --- references --- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Compare [text] with the stored reference [name], or store it under
   --record. A missing reference is a mismatch. *)
let check_ref name text =
  let path = Filename.concat refs_dir name in
  if !record then begin
    mkdir_p (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    true
  end
  else match read_file path with
    | r -> r = text
    | exception Sys_error _ -> false

(* --- per-layer metrics --- *)

let experiment_ids =
  List.map
    (fun (e : Rr_experiments.Report.experiment) -> e.id)
    Rr_experiments.Report.all

let storms = [ "irene"; "katrina"; "sandy" ]

(* The program's own spans whose rollup is reported as a layer metric. *)
let rolled_spans =
  [ "kde.grid_fit"; "env.of_net"; "ratios.pair_routes"; "ratios.intradomain";
    "augment.greedy"; "census.assign"; "replay.run" ]

(* Every per-layer metric with its unit, in output order. *)
let layer_names =
  List.map (fun n -> (n, "s"))
    [ "topology.zoo_s"; "disaster.riskmap_s"; "census.blocks_s";
      "core.interdomain_s"; "topology.continental_s"; "graph.prepare_s" ]
  @ List.map (fun id -> ("experiments." ^ id ^ "_s", "s")) experiment_ids
  @ List.map (fun n -> ("engine." ^ n, "count"))
      [ "env_builds"; "env_hits"; "tree_hits"; "tree_misses"; "tree_evictions";
        "settled_nodes" ]
  @ [ ("engine.tree_hit_ratio", "ratio"); ("graph.query_s", "s") ]
  @ List.map (fun n -> ("graph." ^ n, "count"))
      [ "settled_miles"; "settled_risk"; "runner_alt"; "runner_bidir"; "runner_plain" ]
  @ List.map (fun s -> ("replay." ^ s ^ "_s", "s")) storms
  @ List.map (fun n -> ("replay." ^ n, "count"))
      [ "envs_built"; "envs_patched"; "patched_arcs"; "settled_nodes";
        "trees_kept"; "trees_repaired"; "trees_evicted" ]
  @ [ ("replay.tree_reuse_ratio", "ratio") ]
  @ List.concat_map
      (fun n -> [ (n ^ ".calls", "count"); (n ^ ".self_s", "s") ])
      rolled_spans
  @ [ ("parallel.tasks", "count"); ("parallel.busy_s", "s");
      ("parallel.utilization", "ratio"); ("gc.minor_collections", "count");
      ("gc.major_collections", "count"); ("gc.alloc_mwords", "Mwords");
      ("gc.pause_total_s", "s"); ("gc.pause_p99_ms", "ms");
      ("obs.trace_overhead_pct", "%"); ("wall.setup_s", "s"); ("wall.run_s", "s") ]

let layers : (string, float) Hashtbl.t = Hashtbl.create 128

let set_layer name v = Hashtbl.replace layers name v

let add_layer name v =
  set_layer name (v +. Option.value (Hashtbl.find_opt layers name) ~default:0.0)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Time [f] as layer [name] (metric [name ^ "_s"]) under a span of the
   same name; the span is free when tracing is off. *)
let layer name f =
  let t0 = now () in
  let v = Rr_obs.with_span name f in
  add_layer (name ^ "_s") (now () -. t0);
  v

(* Context.stats deltas as engine.* layers. *)
let add_engine_stats (a : Rr_engine.Context.stats) (b : Rr_engine.Context.stats) =
  let d f = float (f b - f a) in
  add_layer "engine.env_builds" (d (fun s -> s.env_misses));
  add_layer "engine.env_hits" (d (fun s -> s.env_hits));
  add_layer "engine.tree_hits" (d (fun s -> s.tree_hits));
  add_layer "engine.tree_misses" (d (fun s -> s.tree_misses));
  add_layer "engine.tree_evictions" (d (fun s -> s.tree_evictions));
  add_layer "engine.settled_nodes" (d (fun s -> s.settled_nodes))

(* --- workloads ---

   A workload's set-up does everything before the measured phase and
   returns that phase as calls of [round], equal in work. Each round
   reports the processor time of its timed region, one latency per
   operation, the operations it checked and how many of them failed (a
   mismatch or an exception each count once). Each time metric is the
   lower quartile (nearest rank) of its per-round values: processor
   time leaves out the other tenants' turns on the processors but not
   their use of the shared caches and memory, which only ever adds
   time, so the lower quartile of equal rounds is steadier than their
   median, and with four rounds or more it does not rest on one
   round. *)

type outcome = {
  busy_s : float;  (** processor seconds of the round's timed region *)
  latencies : float array;
  attempted : int;
  failed : int;
}

(* [rounds] rounds, or with [timed] as many more as start within
   --seconds of the first. *)
type phase = { rounds : int; timed : bool; round : unit -> outcome }

let shared_corpus () =
  ignore (layer "topology.zoo" Rr_topology.Zoo.shared);
  ignore (layer "disaster.riskmap" Rr_disaster.Riskmap.shared);
  ignore (layer "census.blocks" Rr_census.Synthetic.shared)

let continental_pops = 10_000

(* report-all *)

let report_setup () =
  shared_corpus ();
  let ctx = Rr_engine.Context.create () in
  ignore (layer "core.interdomain" (fun () -> Rr_engine.Context.interdomain ctx));
  (* One round: a pass is ~60 s, and the engine context stays warm
     after it, so a second pass would measure something else. The
     operation a user waits for is the whole pass: inside it, an
     experiment's time depends on what the ones before it cached, so
     experiments are checked one by one but timed only as layers. *)
  { rounds = 1; timed = false; round = fun () ->
    let s0 = Rr_engine.Context.stats ctx in
    let t0 = cpu () in
    let failed = ref 0 in
    List.iter
      (fun (e : Rr_experiments.Report.experiment) ->
        let buf = Buffer.create 4096 in
        let fmt = Format.formatter_of_buffer buf in
        let ok =
          match
            layer ("experiments." ^ e.id) (fun () ->
                e.run ctx fmt;
                Format.pp_print_flush fmt ())
          with
          | () -> true
          | exception exn ->
            Printf.eprintf "perfbench: %s raised %s\n%!" e.id
              (Printexc.to_string exn);
            false
        in
        if not ok then incr failed
        else if not (check_ref ("report/" ^ e.id ^ ".txt") (Buffer.contents buf))
        then begin
          incr failed;
          Printf.eprintf "perfbench: report %s differs from its reference\n%!" e.id
        end)
      Rr_experiments.Report.all;
    let pass = cpu () -. t0 in
    add_engine_stats s0 (Rr_engine.Context.stats ctx);
    { busy_s = pass; latencies = [| pass |];
      attempted = List.length Rr_experiments.Report.all; failed = !failed } }

(* continental-route *)

let pool_size = 1024
let pool_seed = 2013

(* One `riskroute route` request: the bit-miles and the bit-risk-miles
   answer for (src, dst), weighted exactly as the CLI weighs them. *)
type router = {
  q : Rr_graph.Query.t;
  w_miles : int -> float;
  w_risk : src:int -> dst:int -> int -> float;
}

let make_router ctx =
  let net = layer "topology.continental" (fun () ->
      Rr_engine.Context.continental ctx ~pops:continental_pops) in
  let q = Rr_engine.Context.net_query ctx net in
  let miles = Rr_graph.Query.arc_miles q and tgt = Rr_graph.Query.arc_tgt q in
  let p = Riskroute.Params.default in
  let node_risk =
    Array.map
      (fun r -> p.Riskroute.Params.lambda_h *. p.Riskroute.Params.risk_scale *. r)
      (Rr_disaster.Riskmap.pop_risks (Rr_engine.Context.riskmap ctx) net)
  in
  let impact = Rr_topology.Net.population_fractions net in
  let w_risk ~src ~dst =
    let kappa = impact.(src) +. impact.(dst) in
    fun k ->
      Array.unsafe_get miles k
      +. (kappa *. Array.unsafe_get node_risk (Array.unsafe_get tgt k))
  in
  { q; w_miles = (fun k -> Array.unsafe_get miles k); w_risk }

let answer_text = function
  | None -> "none"
  | Some (cost, path) ->
    Printf.sprintf "%Lx %s" (Int64.bits_of_float cost)
      (String.concat "," (List.map string_of_int path))

(* Digest of a request's two answers (cost bits and path). *)
let digest miles risk =
  Digest.to_hex (Digest.string (answer_text miles ^ "|" ^ answer_text risk))

let plain_digest r (src, dst) =
  let run weight = Rr_graph.Query.run ~runner:Plain r.q ~weight ~src ~dst in
  digest (run r.w_miles) (run (r.w_risk ~src ~dst))

let pool_ref = "route/pairs.txt"

(* --record: draw the pool of connected pairs and store their answers. *)
let record_pool r =
  let n = Rr_graph.Query.node_count r.q in
  let rng = Random.State.make [| pool_seed |] in
  let rec draw acc k =
    if k = pool_size then List.rev acc
    else
      let src = Random.State.int rng n and dst = Random.State.int rng n in
      let d = plain_digest r (src, dst) in
      if src = dst || String.equal d (digest None None) then draw acc k
      else draw (Printf.sprintf "%d %d %s\n" src dst d :: acc) (k + 1)
  in
  ignore (check_ref pool_ref (String.concat "" (draw [] 0)))

let load_pool () =
  match read_file (Filename.concat refs_dir pool_ref) with
  | exception Sys_error e -> fail "perfbench: no route pair pool: %s" e
  | text ->
    String.split_on_char '\n' text
    |> List.filter (( <> ) "")
    |> List.map (fun l -> Scanf.sscanf l "%d %d %s" (fun s d g -> ((s, d), g)))
    |> Array.of_list

let route_batch = 2000 (* requests per round *)

let plain_checks = 8 (* per round *)

let route_setup () =
  shared_corpus ();
  let ctx = Rr_engine.Context.create () in
  let r = make_router ctx in
  layer "graph.prepare" (fun () -> Rr_graph.Query.prepare r.q);
  if !record then record_pool r;
  let pool = load_pool () in
  let rng = Random.State.make [| !seed |] in
  { rounds = 4; timed = true; round = fun () ->
    let s0 = Rr_engine.Context.stats ctx in
    let query weight ~src ~dst settled =
      let t0 = now () in
      let ans, runner, n =
        Rr_obs.with_span "graph.query" (fun () ->
            Rr_graph.Query.run_stats r.q ~weight ~src ~dst)
      in
      add_layer "graph.query_s" (now () -. t0);
      add_layer settled (float n);
      add_layer ("graph.runner_" ^ Rr_graph.Query.runner_name runner) 1.0;
      ans
    in
    let picks = ref [] and lats = ref [] in
    let bad = Hashtbl.create 16 in
    let busy = ref 0.0 in
    for _ = 1 to route_batch do
      let i = Random.State.int rng (Array.length pool) in
      let (src, dst), expect = pool.(i) in
      let t0 = cpu () in
      let got =
        try
          let miles = query r.w_miles ~src ~dst "graph.settled_miles" in
          let risk = query (r.w_risk ~src ~dst) ~src ~dst "graph.settled_risk" in
          Some (miles, risk)
        with exn ->
          Printf.eprintf "perfbench: route %d %d raised %s\n%!" src dst
            (Printexc.to_string exn);
          None
      in
      let dt = cpu () -. t0 in
      busy := !busy +. dt;
      lats := dt :: !lats;
      picks := i :: !picks;
      match got with
      | Some (miles, risk) when String.equal (digest miles risk) expect -> ()
      | Some _ ->
        Hashtbl.replace bad i ();
        Printf.eprintf "perfbench: route %d %d differs from its reference\n%!"
          src dst
      | None -> Hashtbl.replace bad i ()
    done;
    add_engine_stats s0 (Rr_engine.Context.stats ctx);
    (* Outside the timed region: a seeded sample of the requests made,
       re-answered by the plain Dijkstra runner. All requests for a pair
       share its reference, so a pair that fails either check fails
       every request made for it. *)
    let picks = Array.of_list !picks in
    for _ = 1 to min plain_checks (Array.length picks) do
      let i = picks.(Random.State.int rng (Array.length picks)) in
      let pair, expect = pool.(i) in
      if not (String.equal (plain_digest r pair) expect) then begin
        Hashtbl.replace bad i ();
        Printf.eprintf "perfbench: route %d %d differs from the plain runner\n%!"
          (fst pair) (snd pair)
      end
    done;
    let failed =
      Array.fold_left (fun n i -> if Hashtbl.mem bad i then n + 1 else n) 0 picks
    in
    let latencies = Array.of_list (List.rev !lats) in
    { busy_s = !busy; latencies; attempted = Array.length latencies; failed } }

(* storm-replay *)

let replay_flows = 64

let replay_rounds = 2

let replay_setup () =
  shared_corpus ();
  let net =
    layer "topology.continental" (fun () ->
        Rr_engine.Context.continental (Rr_engine.Context.create ())
          ~pops:continental_pops)
  in
  { rounds = replay_rounds; timed = false; round = fun () ->
    let failed = ref 0 in
    let latencies =
      List.map
        (fun name ->
          let storm = Option.get (Rr_forecast.Track.find name) in
          let ctx = Rr_engine.Context.create () in
          let s0 = Rr_engine.Context.stats ctx in
          let t0 = cpu () in
          let res =
            match
              layer ("replay." ^ name) (fun () ->
                  Rr_experiments.Replay.run ~mode:Incremental ~pairs:replay_flows
                    ctx ~net ~storm)
            with
            | t -> Some t
            | exception exn ->
              Printf.eprintf "perfbench: replay %s raised %s\n%!" name
                (Printexc.to_string exn);
              None
          in
          let dt = cpu () -. t0 in
          add_engine_stats s0 (Rr_engine.Context.stats ctx);
          (match res with
          | None -> incr failed
          | Some t ->
            List.iter
              (fun (k, v) -> add_layer ("replay." ^ k) (float v))
              [ ("envs_built", t.envs_built); ("envs_patched", t.envs_patched);
                ("patched_arcs", t.patched_arcs);
                ("settled_nodes", t.settled_nodes); ("trees_kept", t.trees_kept);
                ("trees_repaired", t.trees_repaired);
                ("trees_evicted", t.trees_evicted) ];
            let text = Rr_experiments.Replay.render t in
            if not (check_ref ("replay/" ^ name ^ ".txt") text) then begin
              incr failed;
              Printf.eprintf "perfbench: replay %s differs from its reference\n%!"
                name
            end);
          dt)
        storms
    in
    { busy_s = List.fold_left ( +. ) 0.0 latencies;
      latencies = Array.of_list latencies; attempted = List.length storms;
      failed = !failed } }

(* --- measurement --- *)

let setup_for = function
  | "report-all" -> report_setup
  | "continental-route" -> route_setup
  | "storm-replay" -> replay_setup
  | w -> fail "perfbench: unknown workload %S" w

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         try Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float kb /. 1024.0))
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  |> Option.value ~default:0.0

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Seconds per op (lower quartile over rounds) of each untraced run made
   so far in this checkout, one line per run. *)
let state_file () = Filename.concat state_dir ("untraced-" ^ !workload ^ ".txt")

let untraced_history () =
  match read_file (state_file ()) with
  | exception Sys_error _ -> []
  | text -> List.filter_map float_of_string_opt (String.split_on_char '\n' text)

let remember_untraced per_op =
  mkdir_p state_dir;
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644
    (state_file ()) (fun oc -> Printf.fprintf oc "%.9g\n" per_op)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let metrics_json ms =
  String.concat ","
    (List.map
       (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (num v) u)
       ms)

(* A round's outcome with the wall seconds of the whole round. *)
type timed = { wall_s : float; o : outcome }

let run_rounds phase =
  let stop = now () +. !seconds in
  let rec go k acc =
    if k >= phase.rounds && not (phase.timed && now () < stop) then List.rev acc
    else
      let t = now () in
      let o = phase.round () in
      go (k + 1) ({ wall_s = now () -. t; o } :: acc)
  in
  go 0 []

let lower_quartile f rounds =
  percentile (Array.of_list (List.sort compare (List.map f rounds))) 0.25

let per_op r = r.o.busy_s /. float (max 1 r.o.attempted)

let count f rounds = List.fold_left (fun n r -> n + f r.o) 0 rounds

let () =
  let pool = min 2 (Domain.recommended_domain_count ()) in
  Rr_util.Parallel.set_domain_count pool;
  Rr_obs.set_enabled traced;
  let setup = setup_for !workload in
  let c0 = cpu () and t0 = now () in
  let measure = Rr_obs.with_span "bench.setup" setup in
  let setup_s = cpu () -. c0 in
  set_layer "wall.setup_s" (now () -. t0);
  let setup_rollup = Rollup.of_spans (Rr_obs.spans ()) in
  Rr_obs.reset ();
  let probe = if traced then Some (Gcprobe.start ()) else None in
  let t1 = now () in
  let rounds = Rr_obs.with_span "bench.run" (fun () -> run_rounds measure) in
  let elapsed = now () -. t1 in
  let gc = Option.map Gcprobe.finish probe in
  let rss = peak_rss_mb () in
  let run_rollup = Rollup.of_spans (Rr_obs.spans ()) in
  let attempted = ref (count (fun o -> o.attempted) rounds) in
  let failed = ref (count (fun o -> o.failed) rounds) in
  let quantile q r =
    let sorted = Array.copy r.o.latencies in
    Array.sort compare sorted;
    percentile sorted q
  in
  List.iteri
    (fun k r ->
      Printf.printf "# round %d: %s s cpu, %s s wall, p50 %s ms, p99 %s ms\n" k
        (num r.o.busy_s) (num r.wall_s)
        (num (1e3 *. quantile 0.50 r)) (num (1e3 *. quantile 0.99 r)))
    rounds;
  let run_s = lower_quartile (fun r -> r.o.busy_s) rounds in
  set_layer "wall.run_s" (lower_quartile (fun r -> r.wall_s) rounds);
  let p50 = lower_quartile (quantile 0.50) rounds
  and p99 = lower_quartile (quantile 0.99) rounds in
  let g name = Option.value (Hashtbl.find_opt layers name) ~default:0.0 in
  if traced then begin
    let hits = g "engine.tree_hits" and kept = g "replay.trees_kept" in
    set_layer "engine.tree_hit_ratio" (ratio hits (hits +. g "engine.tree_misses"));
    set_layer "replay.tree_reuse_ratio"
      (ratio kept (kept +. g "replay.trees_repaired" +. g "replay.trees_evicted"));
    List.iter
      (fun n ->
        Option.iter
          (fun (r : Rollup.row) ->
            set_layer (n ^ ".calls") (float r.calls);
            set_layer (n ^ ".self_s") r.self_s)
          (Rollup.find run_rollup n))
      rolled_spans;
    let busy =
      Option.fold ~none:0.0 ~some:(fun (r : Rollup.row) -> r.total_s)
        (Rollup.find run_rollup "parallel.task")
    in
    set_layer "parallel.tasks"
      (float (Rr_obs.Counter.value (Rr_obs.Counter.make "parallel.tasks")));
    set_layer "parallel.busy_s" busy;
    set_layer "parallel.utilization" (ratio busy (float pool *. elapsed));
    Option.iter
      (fun (t : Gcprobe.totals) ->
        let pauses = Array.copy t.pauses in
        Array.sort compare pauses;
        set_layer "gc.minor_collections" (float t.minor_collections);
        set_layer "gc.major_collections" (float t.major_collections);
        set_layer "gc.alloc_mwords" (t.alloc_words /. 1e6);
        set_layer "gc.pause_total_s" (Array.fold_left ( +. ) 0.0 pauses);
        set_layer "gc.pause_p99_ms" (1e3 *. percentile pauses 0.99);
        if t.lost_events > 0 then
          Printf.printf "# gc: %d runtime events lost\n" t.lost_events)
      gc;
    (* Untraced reference for the overhead; without one, one more pass
       with tracing off (after the traced one, so its set-up is warm and
       the set-up layers above keep their cold figures). *)
    let untraced =
      match untraced_history () with
      | _ :: _ as history -> median history
      | [] ->
        let kept = Hashtbl.copy layers in
        Rr_obs.set_enabled false;
        let again = run_rounds (setup ()) in
        attempted := !attempted + count (fun o -> o.attempted) again;
        failed := !failed + count (fun o -> o.failed) again;
        Hashtbl.reset layers;
        Hashtbl.iter (Hashtbl.replace layers) kept;
        lower_quartile per_op again
    in
    set_layer "obs.trace_overhead_pct"
      (100.0 *. ((lower_quartile per_op rounds /. untraced) -. 1.0))
  end
  else if not !record then remember_untraced (lower_quartile per_op rounds);
  let rev = if !rev <> "" then !rev else Rr_obs.git_rev () in
  Printf.printf
    "{\"env\":{\"workload\":%S,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\
     \"rev\":%S,\"nproc\":%d,\"pool\":%d,\"ocaml\":%S}}\n"
    !workload !seed (num !seconds) !trace rev
    (Domain.recommended_domain_count ())
    (Rr_util.Parallel.domain_count ())
    Sys.ocaml_version;
  Printf.printf "# %s: %d ops (%d failed), error_rate %s\n" !workload
    !attempted !failed
    (num (ratio (float !failed) (float !attempted)));
  let metrics =
    if traced then begin
      Printf.printf "{\"rollup\":{\"setup\":[%s],\"run\":[%s]}}\n"
        (Rollup.to_json setup_rollup) (Rollup.to_json run_rollup);
      List.map (fun (n, u) -> (n, g n, u)) layer_names
    end
    else
      [ ("setup_s", setup_s, "s"); ("run_cpu_s", run_s, "s");
        ("peak_rss_mb", rss, "MB"); ("op_cpu_p50_ms", 1e3 *. p50, "ms");
        ("op_cpu_p99_ms", 1e3 *. p99, "ms") ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "# %-28s %s %s\n" n (num v) u) metrics;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed (metrics_json metrics)
