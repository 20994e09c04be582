(* Cross-cutting property tests: invariants that should hold for any
   input, checked with qcheck generators over each substrate. *)

open Riskroute

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let arb_coord =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun lat lon -> coord lat lon)
        (float_range 25.0 49.0) (float_range (-124.0) (-67.0)))
    ~print:Rr_geo.Coord.to_string

(* --- geo --- *)

let grid_cell_in_bounds =
  QCheck.Test.make ~name:"grid cell indices within bounds" ~count:300 arb_coord
    (fun c ->
      let grid = Rr_geo.Grid.create Rr_geo.Bbox.conus ~rows:37 ~cols:91 in
      match Rr_geo.Grid.cell_of_coord grid c with
      | None -> not (Rr_geo.Bbox.contains Rr_geo.Bbox.conus c)
      | Some (row, col) -> row >= 0 && row < 37 && col >= 0 && col < 91)

let grid_cell_center_round_trip =
  QCheck.Test.make ~name:"cell centre maps back to its own cell" ~count:300
    (QCheck.pair QCheck.(int_bound 36) QCheck.(int_bound 90))
    (fun (row, col) ->
      let grid = Rr_geo.Grid.create Rr_geo.Bbox.conus ~rows:37 ~cols:91 in
      Rr_geo.Grid.cell_of_coord grid (Rr_geo.Grid.coord_of_cell grid row col)
      = Some (row, col))

let bbox_expand_contains =
  QCheck.Test.make ~name:"expanded bbox contains the original's points" ~count:200
    (QCheck.pair arb_coord (QCheck.float_range 0.0 10.0))
    (fun (c, degrees) ->
      let box =
        Rr_geo.Bbox.of_coords [ c; coord (Rr_geo.Coord.lat c) (-96.0) ]
      in
      Rr_geo.Bbox.contains (Rr_geo.Bbox.expand box ~degrees) c)

let clamp_idempotent =
  QCheck.Test.make ~name:"bbox clamp is idempotent" ~count:300
    (QCheck.pair (QCheck.float_range (-89.0) 89.0) (QCheck.float_range (-179.0) 179.0))
    (fun (lat, lon) ->
      let p = Rr_geo.Coord.make ~lat ~lon in
      let once = Rr_geo.Bbox.clamp Rr_geo.Bbox.conus p in
      Rr_geo.Coord.equal once (Rr_geo.Bbox.clamp Rr_geo.Bbox.conus once)
      && Rr_geo.Bbox.contains Rr_geo.Bbox.conus once)

(* --- graph --- *)

let arb_graph =
  QCheck.make
    QCheck.Gen.(
      int_range 2 10 >>= fun n ->
      list_size (int_range 0 25) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun edges -> return (n, List.filter (fun (u, v) -> u <> v) edges))
    ~print:(fun (n, edges) -> Printf.sprintf "n=%d m=%d" n (List.length edges))

(* A graph as a query over its CSR snapshot, plus a node-pair weight
   lifted onto the arcs (the source of arc [k] is the target of its
   mate). *)
let query_of g =
  let off, tgt = Rr_graph.Graph.to_csr g in
  Rr_graph.Query.create ~n:(Rr_graph.Graph.node_count g) ~off ~tgt
    ~miles:(Array.make (Array.length tgt) 0.0)
    ()

let arc_weight q weight =
  let tgt = Rr_graph.Query.arc_tgt q and mate = Rr_graph.Query.arc_mate q in
  fun k -> weight tgt.(mate.(k)) tgt.(k)

let early_exit_matches_full =
  QCheck.Test.make ~name:"single_pair equals single_source distance" ~count:200
    arb_graph
    (fun (n, edges) ->
      let q = query_of (Rr_graph.Graph.of_edges n edges) in
      let off = Rr_graph.Query.arc_off q and tgt = Rr_graph.Query.arc_tgt q in
      let weight =
        arc_weight q (fun u v -> 1.0 +. float_of_int ((u + (2 * v)) mod 7))
      in
      let tree = Rr_graph.Dijkstra.single_source_flat ~n ~off ~tgt ~weight ~src:0 in
      match
        Rr_graph.Dijkstra.single_pair_flat ~n ~off ~tgt ~weight ~src:0 ~dst:(n - 1)
      with
      | None -> tree.Rr_graph.Dijkstra.dist.(n - 1) = infinity
      | Some (cost, _) -> Float.abs (cost -. tree.Rr_graph.Dijkstra.dist.(n - 1)) < 1e-9)

let remove_edge_weakens_connectivity =
  QCheck.Test.make ~name:"removing an edge never reduces component count" ~count:200
    arb_graph
    (fun (n, edges) ->
      QCheck.assume (edges <> []);
      let g = Rr_graph.Graph.of_edges n edges in
      let before = Rr_graph.Component.component_count g in
      let u, v = List.hd edges in
      Rr_graph.Graph.remove_edge g u v;
      Rr_graph.Component.component_count g >= before)

let yen_paths_sorted =
  QCheck.Test.make ~name:"yen returns sorted, loopless, distinct paths" ~count:100
    arb_graph
    (fun (n, edges) ->
      let q = query_of (Rr_graph.Graph.of_edges n edges) in
      let weight = arc_weight q (fun u v -> 1.0 +. float_of_int ((u * v) mod 5)) in
      let paths = Rr_graph.Kpaths.yen q ~weight ~src:0 ~dst:(n - 1) ~k:5 in
      let costs = List.map fst paths in
      let node_paths = List.map snd paths in
      List.sort Float.compare costs = costs
      && List.length (List.sort_uniq compare node_paths) = List.length node_paths
      && List.for_all
           (fun p -> List.length (List.sort_uniq compare p) = List.length p)
           node_paths)

(* --- core metric --- *)

let arb_env =
  QCheck.make
    QCheck.Gen.(
      int_range 3 8 >>= fun n ->
      list_size (int_range 0 12) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun extra ->
      array_size (return n) (float_range 0.0 2e-4) >>= fun historical ->
      return (n, List.filter (fun (u, v) -> u <> v) extra, historical))
    ~print:(fun (n, _, _) -> Printf.sprintf "env n=%d" n)

let build_env (n, extra, historical) =
  let graph = Rr_graph.Graph.create n in
  for i = 0 to n - 2 do
    Rr_graph.Graph.add_edge graph i (i + 1)
  done;
  List.iter (fun (u, v) -> Rr_graph.Graph.add_edge graph u v) extra;
  Env.make ~graph
    ~coords:
      (Array.init n (fun i ->
           coord (27.0 +. (2.2 *. float_of_int i)) (-119.0 +. (5.5 *. float_of_int i))))
    ~impact:(Array.make n (1.0 /. float_of_int n))
    ~historical ()

let metric_hop_additivity =
  QCheck.Test.make ~name:"bit-risk of a path equals the sum of its hop weights"
    ~count:200 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      let path = List.init n Fun.id in
      let kappa = Env.kappa env 0 (n - 1) in
      let by_hops =
        let rec loop acc = function
          | a :: (b :: _ as rest) -> loop (acc +. Env.edge_weight env ~kappa a b) rest
          | _ -> acc
        in
        loop 0.0 path
      in
      Float.abs (by_hops -. Metric.bit_risk_miles env path) < 1e-9)

let ratios_bounded =
  QCheck.Test.make ~name:"risk reduction ratio bounded by 1" ~count:100 arb_env
    (fun spec ->
      let env = build_env spec in
      let r = Ratios.intradomain env in
      r.Ratios.risk_reduction <= 1.0 +. 1e-9)

let riskroute_distance_dominates =
  QCheck.Test.make ~name:"riskroute path is never shorter than shortest path"
    ~count:200 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      match (Router.riskroute env ~src:0 ~dst:(n - 1), Router.shortest env ~src:0 ~dst:(n - 1)) with
      | Some rr, Some sp -> rr.Router.bit_miles >= sp.Router.bit_miles -. 1e-9
      | _ -> false)

(* exhaustive simple-path enumeration for small graphs *)
let all_simple_paths graph ~src ~dst =
  let acc = ref [] in
  let rec dfs path visited v =
    if v = dst then acc := List.rev path :: !acc
    else
      Rr_graph.Graph.iter_neighbors graph v (fun w ->
          if not (List.mem w visited) then dfs (w :: path) (w :: visited) w)
  in
  dfs [ src ] [ src ] src;
  !acc

let pareto_frontier_truly_optimal =
  QCheck.Test.make ~name:"no simple path dominates a frontier point" ~count:60
    arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      let kappa = Env.kappa env 0 (n - 1) in
      let frontier = Pareto.frontier ~k:16 env ~src:0 ~dst:(n - 1) in
      let everything = all_simple_paths (Env.graph env) ~src:0 ~dst:(n - 1) in
      QCheck.assume (List.length everything <= 200);
      List.for_all
        (fun (p : Pareto.point) ->
          not
            (List.exists
               (fun path ->
                 let miles = Metric.bit_miles env path in
                 let risk = kappa *. Metric.path_risk env path in
                 miles <= p.Pareto.bit_miles +. 1e-9
                 && risk <= p.Pareto.risk +. 1e-9
                 && (miles < p.Pareto.bit_miles -. 1e-9 || risk < p.Pareto.risk -. 1e-9))
               everything))
        frontier)

let backup_repairs_valid =
  QCheck.Test.make ~name:"backup repairs avoid their failure" ~count:100 arb_env
    (fun spec ->
      let env = build_env spec in
      let n = Env.node_count env in
      match Backup.plan env ~src:0 ~dst:(n - 1) with
      | None -> false
      | Some plan ->
        List.for_all
          (fun (r : Backup.repair) ->
            match r.Backup.route with
            | None -> true
            | Some route -> (
              (match r.Backup.failed_node with
              | Some v -> not (List.mem v route.Router.path)
              | None -> true)
              &&
              match r.Backup.failed_link with
              | Some (u, v) ->
                let rec uses = function
                  | a :: (b :: _ as rest) ->
                    ((a = u && b = v) || (a = v && b = u)) || uses rest
                  | _ -> false
                in
                not (uses route.Router.path)
              | None -> true))
          plan.Backup.repairs)

let ospf_zero_risk_high_fidelity =
  QCheck.Test.make ~name:"zero-risk OSPF export routes like shortest path"
    ~count:50 arb_env
    (fun spec ->
      let n, extra, _ = spec in
      let env = build_env (n, extra, Array.make n 0.0) in
      let f = Ospf.fidelity ~pair_cap:40 env in
      (* only quantisation noise on near-tie paths can break matches *)
      f.Ospf.exact_match >= 0.85)

(* --- sampling --- *)

let pair_indices_complete_when_uncapped =
  QCheck.Test.make ~name:"pair_indices covers all ordered pairs when uncapped"
    ~count:100
    QCheck.(int_range 2 12)
    (fun n ->
      let rng = Rr_util.Prng.create 9L in
      let pairs = Rr_util.Sampling.pair_indices rng ~n ~cap:(n * n) in
      Array.length pairs = n * (n - 1)
      &&
      let seen = Hashtbl.create 64 in
      Array.iter (fun p -> Hashtbl.replace seen p ()) pairs;
      Hashtbl.length seen = n * (n - 1))

(* --- forecast calendar --- *)

let timestamp_format =
  QCheck.Test.make ~name:"advisory timestamps are well-formed" ~count:60
    QCheck.(int_bound 59)
    (fun tick ->
      let s = Rr_forecast.Track.timestamp Rr_forecast.Track.sandy ~tick in
      (* e.g. "1100 AM EDT MON OCT 22 2012" *)
      match String.split_on_char ' ' s with
      | [ hour; ampm; tz; dow; mon; day; year ] ->
        String.length hour >= 3
        && (ampm = "AM" || ampm = "PM")
        && tz = "EDT"
        && List.mem dow [ "SUN"; "MON"; "TUE"; "WED"; "THU"; "FRI"; "SAT" ]
        && List.mem mon [ "OCT"; "NOV" ]
        && int_of_string day >= 1
        && int_of_string day <= 31
        && year = "2012"
      | _ -> false)

let union_scope_monotone =
  QCheck.Test.make ~name:"union scope grows with more advisories" ~count:100
    arb_coord
    (fun point ->
      let advisories = Rr_forecast.Track.advisories Rr_forecast.Track.irene in
      let prefix = Rr_util.Listx.take 10 advisories in
      Rr_forecast.Riskfield.union_scope advisories point
      >= Rr_forecast.Riskfield.union_scope prefix point)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "geo",
        [
          q grid_cell_in_bounds; q grid_cell_center_round_trip;
          q bbox_expand_contains; q clamp_idempotent;
        ] );
      ( "graph",
        [ q early_exit_matches_full; q remove_edge_weakens_connectivity; q yen_paths_sorted ] );
      ( "core",
        [
          q metric_hop_additivity; q ratios_bounded; q riskroute_distance_dominates;
          q pareto_frontier_truly_optimal; q backup_repairs_valid;
          q ospf_zero_risk_high_fidelity;
        ] );
      ( "sampling", [ q pair_indices_complete_when_uncapped ] );
      ( "forecast", [ q timestamp_format; q union_scope_monotone ] );
    ]
