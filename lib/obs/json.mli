(** The repo's one JSON module: a value type, one writer and a reader.

    The repo is zero-dependency by policy, so every JSON document it
    emits (telemetry, trace, flight recorder, series, log lines, explain
    records, replay summaries, BENCH files, live endpoint bodies) is
    built as a {!t} and printed by {!to_string} or {!to_line}, and the
    bench baselines and tests read JSON back with {!parse}.

    Writer rules:
    - Layout: containers at depth 0 and 1 put one member per line,
      indented two spaces per level; deeper containers go inline with
      [", "] and [": "]. Empty containers print as [{}]/[[]].
    - Floats: the shortest of [%.15g]/[%.16g]/[%.17g] that reads back to
      the same double, with [".0"] added when the result has no ['.'] or
      ['e']. Non-finite floats print as [0.0].
    - Strings: quote, backslash and control bytes are escaped; bytes
      [>= 0x80] pass through unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** The document in the layout above, ending with a newline. *)

val to_line : t -> string
(** The document on one line (every container inline), with no trailing
    newline: one record of a JSON-lines stream. *)

val quote : string -> string
(** A JSON string literal, quotes included: the writer's escaper, for
    emitters that keep their own layout (GeoJSON). *)

val parse : string -> (t, string) result
(** Parse a complete JSON document; [Error msg] carries a byte offset.
    Total: malformed input yields [Error], never an exception. A number
    literal with no ['.'], ['e'] or ['E'] that fits in an int reads as
    [Int]; every other number reads as [Num]. Unescaped control bytes
    inside strings are rejected, and a [\u] escape takes exactly four
    hex digits. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on missing field or non-object. *)

val to_num : t -> float option
(** [Num] or [Int] as a float. *)

val to_int : t -> int option

val to_str : t -> string option

val to_arr : t -> t list option
