(* Allocation and GC pauses of every domain, read from the runtime's own
   event rings (Runtime_events) rather than [Gc.quick_stat], whose
   [minor_words] only advances at minor collections on OCaml 5 and
   covers the calling domain alone.

   - allocation: the per-domain [EV_C_MINOR_ALLOCATED] counters (bytes
     allocated in each minor heap since its last collection), summed
     over rings; [finish] forces one last minor collection so the tail of
     the phase is counted;
   - pauses: every [EV_MINOR] and [EV_MAJOR_SLICE] begin/end pair, on
     every ring;
   - collections: minor and major ([EV_MAJOR_GC_CYCLE_DOMAINS]) cycles
     as seen by ring 0 — both are stop-the-world on OCaml 5, so the main
     domain takes part in every one.

   A background thread drains the rings every 50 ms, well before they
   wrap (a minor collection writes ~100 words per domain; the rings hold
   64k words); lost events are counted and reported. Draining every 5 ms
   slowed the traced storm replay by about a quarter. *)

type totals = {
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
  pauses : float array;  (** seconds, one per collector slice *)
  lost_events : int;
}

(* Running totals, updated by the callbacks of one [read_poll] at a
   time: the drain thread's while it runs, then [finish]'s. *)
type acc = {
  begins : (int * Runtime_events.runtime_phase, int64) Hashtbl.t;
  mutable alloc_bytes : int;
  mutable minor : int;
  mutable major : int;
  mutable pauses : float list;
  mutable lost : int;
}

type t = {
  acc : acc;
  cursor : Runtime_events.cursor;
  drain : unit -> unit;
  stop : bool Atomic.t;
  thread : Thread.t;
}

let paused = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let ns ts = Runtime_events.Timestamp.to_int64 ts

let callbacks_for a =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if paused phase then Hashtbl.replace a.begins (ring, phase) (ns ts))
    ~runtime_end:(fun ring ts phase ->
      (match Hashtbl.find_opt a.begins (ring, phase) with
      | Some t0 ->
        Hashtbl.remove a.begins (ring, phase);
        a.pauses <- (Int64.(to_float (sub (ns ts) t0)) *. 1e-9) :: a.pauses
      | None -> ());
      if ring = 0 then
        match phase with
        | Runtime_events.EV_MINOR -> a.minor <- a.minor + 1
        | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS -> a.major <- a.major + 1
        | _ -> ())
    ~runtime_counter:(fun _ring _ts counter v ->
      if counter = Runtime_events.EV_C_MINOR_ALLOCATED then
        a.alloc_bytes <- a.alloc_bytes + v)
    ~lost_events:(fun _ring n -> a.lost <- a.lost + n)
    ()

let start () =
  Runtime_events.start ();
  let acc =
    { begins = Hashtbl.create 16; alloc_bytes = 0; minor = 0; major = 0;
      pauses = []; lost = 0 }
  in
  let cursor = Runtime_events.create_cursor None in
  let callbacks = callbacks_for acc in
  let drain () = ignore (Runtime_events.read_poll cursor callbacks None) in
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.05;
          drain ()
        done)
      ()
  in
  { acc; cursor; drain; stop; thread }

(* Totals since [start]; stops the drain thread. *)
let finish p =
  Gc.minor ();
  Atomic.set p.stop true;
  Thread.join p.thread;
  p.drain ();
  Runtime_events.free_cursor p.cursor;
  let a = p.acc in
  {
    alloc_words = float a.alloc_bytes /. float (Sys.word_size / 8);
    minor_collections = a.minor;
    major_collections = a.major;
    pauses = Array.of_list a.pauses;
    lost_events = a.lost;
  }
