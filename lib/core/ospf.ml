open Rr_util

let max_ospf_weight = 65_535

let raw_weight env ~kappa u v = Env.edge_weight env ~kappa u v

let link_weights ?(max_weight = max_ospf_weight) env =
  if max_weight < 1 then invalid_arg "Ospf.link_weights: max_weight < 1";
  let kappa = Env.mean_kappa env in
  let graph = Env.graph env in
  let directed =
    List.concat_map
      (fun (u, v) -> [ (u, v); (v, u) ])
      (Rr_graph.Graph.edges graph)
  in
  let raw = List.map (fun (u, v) -> ((u, v), raw_weight env ~kappa u v)) directed in
  let largest = List.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 raw in
  let scale = if largest > 0.0 then float_of_int max_weight /. largest else 1.0 in
  List.map
    (fun (link, w) ->
      (link, max 1 (min max_weight (int_of_float (Float.round (w *. scale))))))
    raw

let spf_route env ~weights ~src ~dst =
  let table = Hashtbl.create (List.length weights) in
  List.iter (fun (link, w) -> Hashtbl.replace table link w) weights;
  let tgt = Env.arc_tgt env and mate = Env.arc_mate env in
  let weight k =
    match Hashtbl.find_opt table (tgt.(mate.(k)), tgt.(k)) with
    | Some w -> float_of_int w
    | None -> infinity
  in
  match Rr_graph.Query.run ~runner:Plain (Env.query env) ~weight ~src ~dst with
  | Some (_, path) -> Some (Router.route_of_path env path)
  | None -> None

type fidelity = {
  pairs : int;
  exact_match : float;
  risk_gap : float;
}

let fidelity ?(pair_cap = 2000) ?(seed = 0x05_9FL) env =
  let weights = link_weights env in
  let n = Env.node_count env in
  let rng = Prng.create seed in
  let pairs = Sampling.pair_indices rng ~n ~cap:pair_cap in
  let matches = ref 0 and gap = ref 0.0 and count = ref 0 in
  Array.iter
    (fun (src, dst) ->
      match (Router.riskroute env ~src ~dst, spf_route env ~weights ~src ~dst) with
      | Some exact, Some spf ->
        incr count;
        if exact.Router.path = spf.Router.path then incr matches;
        if exact.Router.bit_risk_miles > 0.0 then
          gap :=
            !gap
            +. ((spf.Router.bit_risk_miles -. exact.Router.bit_risk_miles)
               /. exact.Router.bit_risk_miles)
      | _ -> ())
    pairs;
  if !count = 0 then { pairs = 0; exact_match = 0.0; risk_gap = 0.0 }
  else
    {
      pairs = !count;
      exact_match = float_of_int !matches /. float_of_int !count;
      risk_gap = !gap /. float_of_int !count;
    }
