(** Policy-compliant interdomain routing (valley-free / Gao-Rexford).

    Sec. 6.2 of the paper brackets interdomain bit-risk miles between the
    geographic shortest path (upper bound) and the full-control RiskRoute
    path (lower bound), explicitly noting that real traffic "may not have
    control over the routing of traffic in other networks". This module
    adds the realistic middle point: the minimum bit-risk-miles path
    whose AS-level sequence is {e valley-free} under the customer /
    provider / peer relationships of {!Rr_topology.Peering} — a customer
    route climbs providers, crosses at most one peering, then descends to
    customers, the export behaviour BGP policies actually produce.

    Implementation: Dijkstra over the merged graph's CSR arcs lifted to
    three phases (climbing, peered, descending); crossing an
    interconnect consults the AS relationship to decide which phase
    transitions are legal. *)

val route :
  Interdomain.t -> Env.t -> src:int -> dst:int -> Router.route option
(** Minimum bit-risk-miles valley-free route between two merged-graph
    nodes; [None] when no policy-compliant path exists (which can happen
    even on a connected merged graph, e.g. regional-to-regional traffic
    whose only physical corridor would transit a customer). *)

val shortest :
  Interdomain.t -> Env.t -> src:int -> dst:int -> Router.route option
(** Valley-free geographic shortest path (policy-compliant bit-miles
    baseline). *)

type bounds = {
  upper : float;      (** unconstrained shortest path's bit-risk miles *)
  policy : float;     (** valley-free RiskRoute (this module) *)
  lower : float;      (** full-control RiskRoute (Sec. 6.2's lower bound) *)
}

val bounds :
  Interdomain.t -> Env.t -> src:int -> dst:int -> bounds option
(** The paper's two bounds plus the policy point between them; [None]
    when any of the three is unroutable. Invariant (tested):
    [lower <= policy] and [lower <= upper]. *)
