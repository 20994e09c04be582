(* Storm replay: the full and incremental stepping modes must render
   byte-identical per-tick reports while the incremental path does
   strictly less work — the property CI gates on at continental scale,
   exercised here on a corpus net at every pool size. *)

module Context = Rr_engine.Context
module Replay = Rr_experiments.Replay

let with_domains k f =
  let old = Rr_util.Parallel.domain_count () in
  Rr_util.Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old) f

let run mode =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Level3" in
  Replay.run ~mode ~pairs:4 ~ticks:45 ctx ~net ~storm:Rr_forecast.Track.sandy

let test_mode_names () =
  Alcotest.(check string) "full" "full" (Replay.mode_name Replay.Full);
  Alcotest.(check string) "incremental" "incremental"
    (Replay.mode_name Replay.Incremental);
  Alcotest.(check bool) "parse full" true
    (Replay.mode_of_string "Full" = Some Replay.Full);
  Alcotest.(check bool) "parse incr alias" true
    (Replay.mode_of_string "incr" = Some Replay.Incremental);
  Alcotest.(check bool) "reject junk" true (Replay.mode_of_string "x" = None)

let test_modes_render_identically_across_domains () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let full = run Replay.Full in
          let incr = run Replay.Incremental in
          Alcotest.(check string)
            (Printf.sprintf "byte-identical report at %d domains" domains)
            (Replay.render full) (Replay.render incr);
          (* The whole point: same answers, strictly less work. *)
          Alcotest.(check bool)
            (Printf.sprintf "fewer nodes settled at %d domains" domains)
            true
            (incr.Replay.settled_nodes < full.Replay.settled_nodes);
          Alcotest.(check bool)
            (Printf.sprintf "fewer envs built at %d domains" domains)
            true
            (incr.Replay.envs_built < full.Replay.envs_built);
          Alcotest.(check int)
            (Printf.sprintf "one full build seeds the season at %d domains"
               domains)
            1 incr.Replay.envs_built;
          Alcotest.(check int)
            (Printf.sprintf "every other tick is patched at %d domains" domains)
            (List.length incr.Replay.rows - 1)
            incr.Replay.envs_patched;
          Alcotest.(check int)
            (Printf.sprintf "full mode never patches at %d domains" domains)
            0 full.Replay.envs_patched;
          Alcotest.(check bool)
            (Printf.sprintf "offshore ticks keep trees at %d domains" domains)
            true
            (incr.Replay.trees_kept > 0);
          Alcotest.(check bool)
            (Printf.sprintf "landfall ticks repair trees at %d domains" domains)
            true
            (incr.Replay.trees_repaired + incr.Replay.trees_evicted > 0)))
    [ 1; 2; 4 ]

let test_season_shape () =
  let r = run Replay.Incremental in
  Alcotest.(check int) "capped tick count" 45 (List.length r.Replay.rows);
  Alcotest.(check int) "flow count" 4 (Array.length r.Replay.flows);
  Alcotest.(check int) "churn total is the row sum"
    (List.fold_left (fun acc (row : Replay.row) -> acc + row.Replay.churned) 0
       r.Replay.rows)
    r.Replay.churn_total;
  (* Sandy reaches the Level3 footprint inside the first 45 advisories. *)
  Alcotest.(check bool) "some ticks move the field" true
    (r.Replay.changed_ticks > 0);
  Alcotest.(check bool) "some ticks are offshore" true
    (r.Replay.changed_ticks < List.length r.Replay.rows);
  List.iteri
    (fun i (row : Replay.row) ->
      Alcotest.(check int) (Printf.sprintf "row %d indexed in order" i) i
        row.Replay.index)
    r.Replay.rows

let test_summary_json_parses () =
  let r = run Replay.Incremental in
  match Rr_obs.Json.parse (Replay.summary_json r) with
  | Error e -> Alcotest.failf "summary is not valid JSON: %s" e
  | Ok j ->
    let get_i k = Option.bind (Rr_obs.Json.member k j) Rr_obs.Json.to_int in
    let get_s k =
      Option.bind (Rr_obs.Json.member k j) Rr_obs.Json.to_str
    in
    Alcotest.(check (option int)) "schema" (Some 1) (get_i "schema");
    Alcotest.(check (option string)) "mode" (Some "incremental") (get_s "mode");
    Alcotest.(check (option string)) "net" (Some r.Replay.net_name)
      (get_s "net");
    Alcotest.(check (option int)) "ticks" (Some 45) (get_i "ticks");
    Alcotest.(check (option int)) "settled_nodes" (Some r.Replay.settled_nodes)
      (get_i "settled_nodes");
    Alcotest.(check (option int)) "envs_patched" (Some r.Replay.envs_patched)
      (get_i "envs_patched")

let test_flows_deterministic () =
  let a = run Replay.Incremental and b = run Replay.Full in
  Alcotest.(check bool) "same flow sample every run" true
    (a.Replay.flows = b.Replay.flows)

let () =
  Alcotest.run "rr_replay"
    [
      ( "replay",
        [
          Alcotest.test_case "mode names" `Quick test_mode_names;
          Alcotest.test_case "season shape" `Quick test_season_shape;
          Alcotest.test_case "summary json" `Quick test_summary_json_parses;
          Alcotest.test_case "deterministic flows" `Quick
            test_flows_deterministic;
          Alcotest.test_case "full = incremental, domains 1/2/4" `Slow
            test_modes_render_identically_across_domains;
        ] );
    ]
