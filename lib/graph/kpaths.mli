(** K shortest loopless paths (Yen's algorithm).

    Substrate for the multi-objective extensions: enumerating near-optimal
    paths under one weight exposes the distance/risk trade-off curve
    between two PoPs. *)

val yen :
  Query.t -> weight:(int -> float) -> src:int -> dst:int -> k:int ->
  (float * int list) list
(** Up to [k] loopless paths in non-decreasing cost order (source first in
    each path), under an arc-weight function over the query's CSR
    geometry; every search is a [Plain] query. Fewer are returned when
    the graph does not admit [k] distinct paths. Empty when [src] and
    [dst] are disconnected. *)
