(** Interdomain RiskRoute (Sec. 6.2): routing across several ISPs.

    All member networks are merged into one graph; every AS-level peering
    is realised as physical links between co-located PoP pairs. On this
    merged graph, the geographic shortest path is the paper's {e upper
    bound} on reasonable bit-risk miles, and the RiskRoute path (full
    control of every domain) is the {e lower bound}. *)

type t

val merge : ?threshold_miles:float -> Rr_topology.Peering.t -> t
(** Build the merged multi-ISP graph. Peering links are added between
    every co-located PoP pair (default threshold
    {!Rr_topology.Colocation.default_threshold_miles}) of every AS edge. *)

val peering : t -> Rr_topology.Peering.t
val graph : t -> Rr_graph.Graph.t
val node_count : t -> int

val node_id : t -> net:int -> pop:int -> int
(** Merged node id of PoP [pop] of network index [net]. *)

val owner : t -> int -> int
(** Network index owning a merged node. *)

val net_nodes : t -> int -> int array
(** All merged node ids of one network. *)

val regional_nodes : t -> int array
(** Merged node ids of every regional network's PoPs (the paper's
    interdomain destination set). *)

val peering_link_count : t -> int
(** Physical interconnects added on top of the member topologies. *)

val peering_arcs : t -> net_a:int -> net_b:int -> (int * int) list
(** The links a new peering between two member networks would add:
    merged node pairs [(u, v)], [u] of [net_a] and [v] of [net_b], one
    per co-located PoP pair that is not already an edge, without
    duplicates, in {!Rr_topology.Colocation.pairs} order. *)

val with_extra_peering :
  t -> net_a:int -> net_b:int -> t
(** Copy of the merged graph with a new peering between two member
    networks: the graph plus {!peering_arcs}. *)

val env :
  ?params:Params.t ->
  ?riskmap:Rr_disaster.Riskmap.t ->
  ?advisory:Rr_forecast.Advisory.t ->
  t ->
  Env.t
(** Routing environment over the merged graph. Impact fractions are
    per-network service fractions halved, so [kappa_ij = c_i + c_j] is
    the endpoints' share of the two networks' combined customer base —
    the intradomain scale carried across domains. *)

val shared : unit -> t * Env.t
(** Merged graph + environment for {!Rr_topology.Zoo.shared} at default
    parameters, built once and memoised. *)
