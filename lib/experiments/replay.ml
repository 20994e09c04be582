(* Storm replay: stream a whole hurricane season of advisories through
   the engine tick-by-tick and watch the advised routes move.

   The driver exists to exercise (and measure) the two advisory-stepping
   paths against each other: [Full] rebuilds the environment from
   scratch every tick exactly as the pre-delta engine did, [Incremental]
   steps via [Context.patched_env] (sparse field diff -> Env.patch ->
   tree keep/repair migration). The per-tick route output is required to
   be byte-identical between the two — CI diffs it — while the work
   totals (environments built, nodes settled) must favour the
   incremental path. Everything mode-dependent therefore lives in the
   summary, never in the rendered tick rows. *)

type mode = Full | Incremental

let mode_name = function Full -> "full" | Incremental -> "incremental"

let mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "full" -> Some Full
  | "incremental" | "incr" -> Some Incremental
  | _ -> None

type row = {
  index : int;
  issued : string;
  in_scope : int;
  changed : int;
  churned : int;
  risk_cost : float;
  mean_detour : float;
}

type t = {
  net_name : string;
  storm_name : string;
  mode : mode;
  flows : (int * int) array;
  rows : row list;
  churn_total : int;
  changed_ticks : int;
  envs_built : int;
  envs_patched : int;
  settled_nodes : int;
  trees_kept : int;
  trees_repaired : int;
  trees_evicted : int;
  patched_arcs : int;
}

let default_pairs = 8

let pairs_from_env () =
  match Rr_obs.Envvar.(trimmed replay_pairs) with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with Some p when p > 0 -> Some p | _ -> None)

let ticks_from_env () =
  match Rr_obs.Envvar.(trimmed replay_ticks) with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with Some c when c > 0 -> Some c | _ -> None)

let flow_seed = 0x7265706c6179L (* "replay" *)

(* Deterministic flow sample: fixed seed, pairs drawn within one
   connected component so every tick can route them. *)
let draw_flows (net : Rr_topology.Net.t) ~pairs =
  let n = Rr_topology.Net.pop_count net in
  if n < 2 then invalid_arg "Replay: network too small for flows";
  let labels = Rr_graph.Component.components net.Rr_topology.Net.graph in
  let rng = Rr_util.Prng.create flow_seed in
  let attempts = ref 0 in
  Array.init pairs (fun _ ->
      let rec draw () =
        incr attempts;
        if !attempts > 10_000 then
          failwith "Replay: could not sample connected flow pairs";
        let src = Rr_util.Prng.int rng n and dst = Rr_util.Prng.int rng n in
        if src <> dst && labels.(src) = labels.(dst) then (src, dst)
        else draw ()
      in
      draw ())

let run ?(mode = Incremental) ?pairs ?ticks ctx ~(net : Rr_topology.Net.t)
    ~(storm : Rr_forecast.Track.storm) =
  Rr_obs.with_kernel "replay.run" (fun () ->
      let pairs =
        match pairs with
        | Some p ->
          if p <= 0 then invalid_arg "Replay.run: pairs must be positive";
          p
        | None -> Option.value (pairs_from_env ()) ~default:default_pairs
      in
      let advisories = Rr_forecast.Track.advisories storm in
      let advisories =
        let cap =
          match ticks with
          | Some c ->
            if c <= 0 then invalid_arg "Replay.run: ticks must be positive";
            Some c
          | None -> ticks_from_env ()
        in
        match cap with
        | None -> advisories
        | Some c -> List.filteri (fun i _ -> i < c) advisories
      in
      let coords =
        Array.map
          (fun (p : Rr_topology.Pop.t) -> p.Rr_topology.Pop.coord)
          net.Rr_topology.Net.pops
      in
      let flows = draw_flows net ~pairs in
      let s0 = Rr_engine.Context.stats ctx in
      let prev_paths : int list option array = Array.make pairs None in
      let prev_adv = ref None and parent = ref None in
      let rows = ref [] in
      List.iteri
        (fun index adv ->
          let env =
            match (mode, !parent) with
            | Incremental, Some p ->
              Rr_engine.Context.patched_env ~advisory:adv ctx net ~parent:p
            | Incremental, None | Full, _ ->
              Rr_engine.Context.env ~advisory:adv ctx net
          in
          parent := Some env;
          (* Mode-independent row ingredients: the field delta is
             recomputed from the advisory pair here (never taken from
             the engine) so both modes print identical numbers. *)
          let delta =
            Rr_forecast.Riskfield.diff ~prev:!prev_adv ~next:(Some adv) coords
          in
          prev_adv := Some adv;
          let risk_tree = Rr_engine.Context.risk_trees ctx env in
          let dist_tree = Rr_engine.Context.dist_trees ctx env in
          let churned = ref 0
          and risk_cost = ref 0.0
          and detour_sum = ref 0.0 in
          Array.iteri
            (fun i (src, dst) ->
              let rt = risk_tree src in
              let path =
                Rr_graph.Dijkstra.path_of_tree rt ~src ~dst
              in
              (match (path, prev_paths.(i)) with
              | Some p, Some q when p <> q -> incr churned
              | _, None | None, _ | Some _, Some _ -> ());
              prev_paths.(i) <- path;
              risk_cost := !risk_cost +. rt.Rr_graph.Dijkstra.dist.(dst);
              let shortest = (dist_tree src).Rr_graph.Dijkstra.dist.(dst) in
              let miles =
                match path with
                | Some p -> Riskroute.Metric.bit_miles env p
                | None -> shortest
              in
              detour_sum := !detour_sum +. (miles /. shortest))
            flows;
          rows :=
            {
              index;
              issued = adv.Rr_forecast.Advisory.issued;
              in_scope = Rr_forecast.Riskfield.pops_in_scope adv net;
              changed = Array.length delta.Rr_forecast.Riskfield.indices;
              churned = !churned;
              risk_cost = !risk_cost;
              mean_detour = !detour_sum /. float_of_int pairs;
            }
            :: !rows)
        advisories;
      let s1 = Rr_engine.Context.stats ctx in
      let rows = List.rev !rows in
      {
        net_name = net.Rr_topology.Net.name;
        storm_name = storm.Rr_forecast.Track.name;
        mode;
        flows;
        rows;
        churn_total = List.fold_left (fun acc r -> acc + r.churned) 0 rows;
        changed_ticks =
          List.fold_left
            (fun acc r -> if r.changed > 0 then acc + 1 else acc)
            0 rows;
        envs_built = s1.env_misses - s0.env_misses;
        envs_patched = s1.env_patched - s0.env_patched;
        settled_nodes = s1.settled_nodes - s0.settled_nodes;
        trees_kept = s1.delta_trees_kept - s0.delta_trees_kept;
        trees_repaired = s1.delta_trees_repaired - s0.delta_trees_repaired;
        trees_evicted = s1.delta_trees_evicted - s0.delta_trees_evicted;
        patched_arcs = s1.delta_patched_arcs - s0.delta_patched_arcs;
      })

(* The rendered report is the byte-identity surface: nothing in it may
   depend on the stepping mode, and floats print with full precision
   (%.17g round-trips every double) so a single-ulp divergence between
   the full and incremental paths fails the CI diff instead of hiding
   below a rounding. *)
let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "replay %s / %s: %d advisories, %d flows\n" t.net_name
       t.storm_name (List.length t.rows)
       (Array.length t.flows));
  Buffer.add_string buf
    (Printf.sprintf "flows: %s\n"
       (String.concat " "
          (Array.to_list
             (Array.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) t.flows))));
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf
           "tick %02d  %s  in-scope %d  changed %d  churn %d/%d  risk %.17g  \
            detour %.17g\n"
           r.index r.issued r.in_scope r.changed r.churned
           (Array.length t.flows) r.risk_cost r.mean_detour))
    t.rows;
  Buffer.add_string buf
    (Printf.sprintf "season: churn-total %d, changed-ticks %d/%d\n"
       t.churn_total t.changed_ticks (List.length t.rows));
  Buffer.contents buf

let summary_json t =
  let open Rr_obs.Json in
  to_string
    (Obj
       [
         ("schema", Int 1);
         ("net", Str t.net_name);
         ("storm", Str t.storm_name);
         ("mode", Str (mode_name t.mode));
         ("ticks", Int (List.length t.rows));
         ("flows", Int (Array.length t.flows));
         ("churn_total", Int t.churn_total);
         ("changed_ticks", Int t.changed_ticks);
         ("envs_built", Int t.envs_built);
         ("envs_patched", Int t.envs_patched);
         ("settled_nodes", Int t.settled_nodes);
         ("trees_kept", Int t.trees_kept);
         ("trees_repaired", Int t.trees_repaired);
         ("trees_evicted", Int t.trees_evicted);
         ("patched_arcs", Int t.patched_arcs);
       ])
