type t = {
  peering : Rr_topology.Peering.t;
  threshold_miles : float;
  offsets : int array;
  graph : Rr_graph.Graph.t;
  coords : Rr_geo.Coord.t array;
  node_net : int array;
  peering_links : int;
}

let merge ?(threshold_miles = Rr_topology.Colocation.default_threshold_miles)
    (peering : Rr_topology.Peering.t) =
  let nets = peering.Rr_topology.Peering.nets in
  let count = Array.length nets in
  let offsets = Array.make count 0 in
  let total = ref 0 in
  Array.iteri
    (fun i net ->
      offsets.(i) <- !total;
      total := !total + Rr_topology.Net.pop_count net)
    nets;
  let n = !total in
  let coords = Array.make n (Rr_geo.Coord.make ~lat:0.0 ~lon:0.0) in
  let node_net = Array.make n 0 in
  let graph = Rr_graph.Graph.create n in
  Array.iteri
    (fun i net ->
      Array.iter
        (fun (p : Rr_topology.Pop.t) ->
          let id = offsets.(i) + p.Rr_topology.Pop.id in
          coords.(id) <- p.Rr_topology.Pop.coord;
          node_net.(id) <- i)
        net.Rr_topology.Net.pops;
      List.iter
        (fun (u, v) ->
          Rr_graph.Graph.add_edge graph (offsets.(i) + u) (offsets.(i) + v))
        (Rr_graph.Graph.edges net.Rr_topology.Net.graph))
    nets;
  let peering_links = ref 0 in
  List.iter
    (fun (a, b) ->
      let pairs = Rr_topology.Colocation.pairs ~threshold_miles nets.(a) nets.(b) in
      List.iter
        (fun (i, j) ->
          let u = offsets.(a) + i and v = offsets.(b) + j in
          if not (Rr_graph.Graph.has_edge graph u v) then begin
            Rr_graph.Graph.add_edge graph u v;
            incr peering_links
          end)
        pairs)
    peering.Rr_topology.Peering.edges;
  {
    peering;
    threshold_miles;
    offsets;
    graph;
    coords;
    node_net;
    peering_links = !peering_links;
  }

let peering t = t.peering

let graph t = t.graph

let node_count t = Array.length t.coords

let node_id t ~net ~pop = t.offsets.(net) + pop

let owner t node = t.node_net.(node)

let net_nodes t i =
  let size = Rr_topology.Net.pop_count t.peering.Rr_topology.Peering.nets.(i) in
  Array.init size (fun pop -> t.offsets.(i) + pop)

let regional_nodes t =
  let nets = t.peering.Rr_topology.Peering.nets in
  let acc = ref [] in
  Array.iteri
    (fun i net ->
      match net.Rr_topology.Net.tier with
      | Rr_topology.Net.Regional ->
        Array.iter (fun node -> acc := node :: !acc) (net_nodes t i)
      | Rr_topology.Net.Tier1 -> ())
    nets;
  Array.of_list (List.rev !acc)

let peering_link_count t = t.peering_links

let peering_arcs t ~net_a ~net_b =
  let nets = t.peering.Rr_topology.Peering.nets in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (i, j) ->
      let u = t.offsets.(net_a) + i and v = t.offsets.(net_b) + j in
      let key = (min u v, max u v) in
      if Rr_graph.Graph.has_edge t.graph u v || Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (u, v)
      end)
    (Rr_topology.Colocation.pairs ~threshold_miles:t.threshold_miles nets.(net_a)
       nets.(net_b))

let with_extra_peering t ~net_a ~net_b =
  let arcs = peering_arcs t ~net_a ~net_b in
  let graph = Rr_graph.Graph.copy t.graph in
  List.iter (fun (u, v) -> Rr_graph.Graph.add_edge graph u v) arcs;
  { t with graph; peering_links = t.peering_links + List.length arcs }

let env ?(params = Params.default) ?riskmap ?advisory t =
  let riskmap =
    match riskmap with Some r -> r | None -> Rr_disaster.Riskmap.shared ()
  in
  (* Impact is per-network: each PoP carries the fraction of its OWN
     network's served population, halved so that kappa_ij = c_i + c_j
     reads as the endpoints' share of the two networks' combined customer
     base — the natural interdomain normalisation that keeps kappa on the
     intradomain scale. *)
  let impact =
    Array.concat
      (Array.to_list
         (Array.map
            (fun net ->
              Array.map (fun c -> c /. 2.0) (Rr_census.Service.shared_fractions net))
            t.peering.Rr_topology.Peering.nets))
  in
  let historical =
    Array.map (fun c -> Rr_disaster.Riskmap.risk_at riskmap c) t.coords
  in
  let base =
    Env.make ~params ~graph:t.graph ~coords:t.coords ~impact ~historical ()
  in
  match advisory with
  | None -> base
  | Some adv -> Env.with_advisory base (Some adv)

let shared =
  let cache =
    lazy
      (let zoo = Rr_topology.Zoo.shared () in
       let merged = merge zoo.Rr_topology.Zoo.peering in
       (merged, env merged))
  in
  fun () -> Lazy.force cache
