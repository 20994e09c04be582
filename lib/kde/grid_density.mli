(** Rasterised kernel density estimate.

    Events are binned onto a CONUS grid, then the Gaussian kernel is
    applied as a truncated convolution in cell space. Fitting scatters
    each occupied cell over its stencil: O(events + occupied cells x
    support^2) additions, with the Gaussian evaluated only once per
    (occupied source row x stencil offset) — a per-row weight table, not
    an [exp] per cell pair. Evaluation is O(1) — the fast path for
    heat-map figures and for evaluating a density at hundreds of PoPs.
    Accuracy versus the exact {!Density} degrades only when the
    bandwidth is smaller than a cell. *)

type t

val fit :
  ?rows:int -> ?cols:int -> bandwidth:float -> Rr_geo.Coord.t array -> t
(** Default raster is 250 x 580 over {!Rr_geo.Bbox.conus} (about 6 x 6.4
    miles per cell). Events outside the box are dropped (but still count
    towards the normalisation). Raises [Invalid_argument] on a
    non-positive bandwidth or no events. On a pool of more than one
    domain, source-row chunks scatter into private grids merged in chunk
    order, so cells match the single-domain fit only to rounding. *)

val eval_fit :
  ?rows:int ->
  ?cols:int ->
  bandwidth:float ->
  Rr_geo.Coord.t array ->
  Rr_geo.Coord.t array ->
  float array
(** [eval_fit ~bandwidth events probes] is, for each probe,
    [eval (fit ~bandwidth events) probe] as a single-domain pool
    computes it, bit for bit, at any pool size — without building the
    output raster. Each distinct probe cell gathers its density in the
    sequential scatter's summation order; probes outside the box get
    [0.0]. Events are binned sparsely (no raster is allocated); each
    distinct probe cell visits only the occupied cells within its
    stencil. Holds one weight table per occupied source row at once,
    which suits the coarse cross-validation rasters of {!Bandwidth}, not
    a full-resolution surface with a wide bandwidth. Raises like {!fit},
    and on a non-positive size. *)

val bandwidth : t -> float

val eval : t -> Rr_geo.Coord.t -> float
(** Density (per square mile) of the cell containing the point; 0 outside
    the raster. *)

val grid : t -> Rr_geo.Grid.t
(** The underlying normalised-density raster (read for rendering). *)
