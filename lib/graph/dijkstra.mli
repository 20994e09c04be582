(** Dijkstra shortest paths over a CSR adjacency with a caller-supplied
    arc-weight function.

    This is the optimiser behind both shortest-path (bit-miles) routing and
    RiskRoute (bit-risk-miles, Eq. 3 of the paper): the two differ only in
    the weight function. Weights must be non-negative. *)

type tree = {
  dist : float array;  (** [infinity] for unreachable nodes *)
  parent : int array;  (** [-1] for the source and unreachable nodes *)
}
(** Trees are write-once: no function in this library mutates a
    returned tree, so callers may share them freely — the engine's
    tree cache ([Rr_engine.Context]) hands the same physical tree to
    every consumer, and [Augment] aliases [dist] arrays as all-pairs
    matrix rows. Anyone relaxing a cached row must copy it first. *)

val search :
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  touch:(int -> unit) ->
  dist:float array ->
  parent:int array ->
  settled:bool array ->
  heap:int Rr_util.Heap.t ->
  src:int ->
  stop:int ->
  int
(** The shortest-path core every plain run goes through: Dijkstra from
    [src] over a flattened CSR adjacency (see {!Graph.to_csr}), where
    [weight] maps an {e arc index} to its non-negative weight. Works on
    caller-provided scratch: on entry [dist]/[parent]/[settled] must
    read [infinity]/[-1]/[false] at every node the run can reach and
    [heap] must be empty. Seeds [src] itself, stops once node [stop]
    is settled ([-1] runs to exhaustion), and calls [touch v] for every
    node whose label it writes ([src] included) so a caller reusing
    the scratch can undo exactly those entries. Returns the number of
    nodes settled. Equal-cost ties go to the first arc relaxed, in CSR
    arc order. Feeds the [dijkstra.*] {!Rr_obs} counters when telemetry
    is on. *)

val propagate_inserted :
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  dist:float array ->
  heap:int Rr_util.Heap.t ->
  inserted:(int * int) array ->
  stop:int ->
  int
(** Arc insertion after a {!search}: [dist] holds the labels a
    [search ~stop] (or a full run, [stop = -1]) left over a graph without
    the [inserted] arcs, given here as [(arc index, arc source)] of this
    CSR, whose other arcs must carry the same weights as that graph's.
    Lowers [dist] in place so that [dist.(stop)] (every label, when
    [stop = -1]) is bitwise the label a fresh {!search} over this CSR
    would settle: a label is the minimum over paths of the left-folded
    float cost, unique whatever the tie order. Labels other than
    [dist.(stop)] are left as upper bounds; no parents are kept. [heap]
    must be empty on entry and is empty on return. Returns the number of
    nodes expanded. *)

val single_source_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  tree
(** Full shortest-path tree from [src]: {!search} on fresh arrays. *)

val single_pair_flat :
  n:int ->
  off:int array ->
  tgt:int array ->
  weight:(int -> float) ->
  src:int ->
  dst:int ->
  (float * int list) option
(** Cost and node path (source first) from [src] to [dst]; [None] when
    disconnected. {!search} on fresh arrays, stopping once [dst] is
    settled. *)

type repair_stats = {
  settled : int;  (** nodes settled while repairing (or by the fallback run) *)
  full : bool;  (** [true] when the repair fell back to a fresh run *)
}

val repair :
  n:int ->
  off:int array ->
  tgt:int array ->
  mate:int array ->
  weight:(int -> float) ->
  old_weight:(int -> float) ->
  changed:(int * int) array ->
  ?frontier_limit:int ->
  tree ->
  src:int ->
  tree * repair_stats
(** Ramalingam–Reps-style incremental SSSP repair: given a tree that was
    computed from [src] under [old_weight] and a sparse set of changed
    arcs [(arc index, arc source)], produce the tree for [weight] —
    bit-identical ([dist] and [parent]) to a fresh
    {!single_source_flat} run under [weight]. [mate] is the reverse-CSR
    pairing from {!Graph.csr_mates} (repairs traverse in-arcs).

    Only the subtrees hanging under increased tree arcs are invalidated
    and re-settled, so a storm-local weight change settles a storm-local
    node count. The repair falls back to a full recompute (reported via
    [full = true]) when the invalidated region exceeds [frontier_limit]
    nodes (default: never) or when an equal-cost tie is encountered
    whose winner would depend on heap order — the bit-identity guarantee
    is unconditional either way. The input tree is not mutated. *)

val path_of_tree : tree -> src:int -> dst:int -> int list option
(** Recover the node path from a tree; [None] when [dst] unreachable. *)
