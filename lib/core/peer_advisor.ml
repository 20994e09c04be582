open Rr_util

type recommendation = {
  regional : string;
  peer : string;
  baseline : float;
  with_peer : float;
  improvement : float;
}

let candidates_for merged i =
  let peering = Interdomain.peering merged in
  let nets = peering.Rr_topology.Peering.nets in
  List.filter
    (fun j ->
      j <> i
      && (not (Rr_topology.Peering.are_peers peering i j))
      && Rr_topology.Colocation.co_located nets.(i) nets.(j))
    (Listx.range 0 (Array.length nets))

let sample_pairs ~seed ~sources ~dests ~cap =
  let rng = Prng.create seed in
  let ns = Array.length sources and nd = Array.length dests in
  let total = ns * nd in
  if total <= cap then begin
    let out = ref [] in
    Array.iter
      (fun s -> Array.iter (fun d -> if s <> d then out := (s, d) :: !out) dests)
      sources;
    Array.of_list !out
  end
  else
    Array.init cap (fun _ ->
        (sources.(Prng.int rng ns), dests.(Prng.int rng nd)))

(* One candidate peer's merged graph in CSR form, with the links the
   new peering adds as [(arc index, arc source)] in both directions. *)
type candidate = {
  off : int array;
  tgt : int array;
  miles : float array;
  risk : float array;
  inserted : (int * int) array;
}

let candidate merged base_env ~regional j =
  let merged' = Interdomain.with_extra_peering merged ~net_a:regional ~net_b:j in
  let env = Env.with_graph base_env (Interdomain.graph merged') in
  let off = Env.arc_off env and tgt = Env.arc_tgt env in
  let arc u v =
    let k = ref off.(u) in
    while tgt.(!k) <> v do
      incr k
    done;
    (!k, u)
  in
  {
    off;
    tgt;
    miles = Env.arc_miles env;
    risk = Env.arc_risk env;
    inserted =
      Array.of_list
        (List.concat_map
           (fun (u, v) -> [ arc u v; arc v u ])
           (Interdomain.peering_arcs merged ~net_a:regional ~net_b:j));
  }

let c_pairs = Rr_obs.Counter.make "peer_advisor.pairs"

let c_base_settled = Rr_obs.Counter.make "peer_advisor.base_settled"

let c_insert_settled = Rr_obs.Counter.make "peer_advisor.insert_settled"

(* Per-domain scratch for [pair_costs], grown to the graph on first use
   (the pool runs pairs on several domains at once). *)
type scratch = {
  dist : float array;
  parent : int array;
  settled : bool array;
  labels : float array;
  heap : int Heap.t;
}

let make_scratch n =
  {
    dist = Array.make n infinity;
    parent = Array.make n (-1);
    settled = Array.make n false;
    labels = Array.make n infinity;
    heap = Heap.create ~capacity:(max 16 n) ();
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

(* This domain's scratch, ready for a [search] over nodes [0, n). *)
let scratch n =
  let s = Domain.DLS.get scratch_key in
  let s =
    if Array.length s.dist >= n then s
    else begin
      let s = make_scratch n in
      Domain.DLS.set scratch_key s;
      s
    end
  in
  Array.fill s.dist 0 n infinity;
  Array.fill s.parent 0 n (-1);
  Array.fill s.settled 0 n false;
  s

(* Lower-bound bit-risk miles of one sampled pair today (index 0) and
   with each candidate's peering (index [1 + c]); [infinity] for an
   unreachable or degenerate pair. One search stopped at [dst] on the
   base graph, then per candidate a propagation from its inserted arcs
   over a copy of the search's labels (see [Dijkstra.propagate_inserted]
   for why the result is bitwise that of a fresh search). Arc weights
   are [Router.riskroute]'s expression. *)
let pair_costs base_env candidates (src, dst) =
  let row = Array.make (1 + Array.length candidates) infinity in
  if src <> dst then begin
    let n = Env.node_count base_env in
    let kappa = Env.kappa base_env src dst in
    let s = scratch n in
    let miles = Env.arc_miles base_env and risk = Env.arc_risk base_env in
    let base_settled =
      Rr_graph.Dijkstra.search ~off:(Env.arc_off base_env)
        ~tgt:(Env.arc_tgt base_env)
        ~weight:(fun k ->
          Array.unsafe_get miles k +. (kappa *. Array.unsafe_get risk k))
        ~touch:ignore ~dist:s.dist ~parent:s.parent ~settled:s.settled
        ~heap:s.heap ~src ~stop:dst
    in
    Heap.clear s.heap;
    row.(0) <- s.dist.(dst);
    let expanded = ref 0 in
    Array.iteri
      (fun c cand ->
        Array.blit s.dist 0 s.labels 0 n;
        let miles = cand.miles and risk = cand.risk in
        expanded :=
          !expanded
          + Rr_graph.Dijkstra.propagate_inserted ~off:cand.off ~tgt:cand.tgt
              ~weight:(fun k ->
                Array.unsafe_get miles k +. (kappa *. Array.unsafe_get risk k))
              ~dist:s.labels ~heap:s.heap ~inserted:cand.inserted ~stop:dst;
        row.(c + 1) <- s.labels.(dst))
      candidates;
    Rr_obs.Counter.add c_base_settled base_settled;
    Rr_obs.Counter.add c_insert_settled !expanded
  end;
  row

(* Mean of one column of the pair rows over its reachable pairs, summed
   in pair order. *)
let mean_column rows c =
  let acc = ref 0.0 and count = ref 0 in
  Array.iter
    (fun row ->
      if row.(c) < infinity then begin
        acc := !acc +. row.(c);
        incr count
      end)
    rows;
  if !count = 0 then infinity else !acc /. float_of_int !count

let recommend_for ?(pair_cap = 600) merged base_env ~regional =
  Rr_obs.with_span "peer_advisor.recommend_for" @@ fun () ->
  match candidates_for merged regional with
  | [] -> None
  | candidates ->
    let peering = Interdomain.peering merged in
    let nets = peering.Rr_topology.Peering.nets in
    let sources = Interdomain.net_nodes merged regional in
    let dests = Interdomain.regional_nodes merged in
    let pairs = sample_pairs ~seed:0xBEE4L ~sources ~dests ~cap:pair_cap in
    Rr_obs.Counter.add c_pairs (Array.length pairs);
    let cands =
      Array.of_list (List.map (candidate merged base_env ~regional) candidates)
    in
    let rows = Parallel.map_array (pair_costs base_env cands) pairs in
    let baseline = mean_column rows 0 in
    let scored = List.mapi (fun c j -> (j, mean_column rows (c + 1))) candidates in
    (match Listx.min_by snd scored with
    | None -> None
    | Some (j, with_peer) ->
      Some
        {
          regional = nets.(regional).Rr_topology.Net.name;
          peer = nets.(j).Rr_topology.Net.name;
          baseline;
          with_peer;
          improvement =
            (if baseline > 0.0 && baseline < infinity then
               1.0 -. (with_peer /. baseline)
             else 0.0);
        })

let recommend_all ?pair_cap merged base_env =
  let peering = Interdomain.peering merged in
  let nets = peering.Rr_topology.Peering.nets in
  List.filter_map
    (fun i ->
      match nets.(i).Rr_topology.Net.tier with
      | Rr_topology.Net.Regional -> recommend_for ?pair_cap merged base_env ~regional:i
      | Rr_topology.Net.Tier1 -> None)
    (Listx.range 0 (Array.length nets))
