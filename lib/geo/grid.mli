(** Raster grids over a bounding box.

    Used for population heat maps (Fig. 3), KDE likelihood maps (Fig. 4)
    and the ASCII renderings of every map figure. Cells are indexed
    [(row, col)] with row 0 at the {e northern} edge so that rendering
    top-to-bottom matches a map. *)

type t

val create : Bbox.t -> rows:int -> cols:int -> t
(** Zero-initialised grid. *)

val rows : t -> int
val cols : t -> int
val bbox : t -> Bbox.t

val cell_of_coord : t -> Coord.t -> (int * int) option
(** Cell containing a coordinate, or [None] outside the box. *)

val locate : Bbox.t -> rows:int -> cols:int -> Coord.t -> (int * int) option
(** [cell_of_coord] for a [rows] x [cols] grid over the box, without
    allocating one. *)

val coord_of_cell : t -> int -> int -> Coord.t
(** Centre of cell [(row, col)]. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add : t -> int -> int -> float -> unit

val cells : t -> float array
(** The row-major backing array itself, not a copy: cell [(row, col)] is
    index [row * cols + col]. For hot loops that index the raster
    directly; writes go straight into the grid. *)

val deposit : t -> Coord.t -> float -> unit
(** Add mass at a coordinate's cell; silently drops out-of-box points
    (matching how the paper restricts analysis to the CONUS box). *)

val map_inplace : t -> (float -> float) -> unit
val fold : t -> init:'a -> f:('a -> int -> int -> float -> 'a) -> 'a
val total : t -> float
val max_value : t -> float

val normalize : t -> unit
(** Scale all cells so they sum to 1; no-op on an all-zero grid. *)

val mass_in : t -> Bbox.t -> float
(** Fraction-style mass of cells whose centres lie inside the given box. *)

val render_ascii : ?width:int -> ?height:int -> t -> string
(** Down-sampled ASCII heat map using a density ramp [" .:-=+*#%@"].
    Suitable for terminal reproduction of the paper's map figures. *)
