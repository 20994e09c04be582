let quantile samples q =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end

let mean samples =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int n

let measure ?(warmups = 3) ?(reps = 10) kernels =
  let reps = max 1 reps in
  List.map
    (fun (name, f) ->
      for _ = 1 to warmups do
        f ()
      done;
      let ns = Array.make reps 0.0 in
      let minor = Array.make reps 0.0 in
      let major = Array.make reps 0.0 in
      for i = 0 to reps - 1 do
        (* [quick_stat]'s minor_words only advances at minor collections
           on OCaml 5; [Gc.minor_words] reads the live allocation pointer. *)
        let g0 = Gc.quick_stat () in
        let mw0 = Gc.minor_words () in
        let t0 = Rr_obs.Clock.monotonic () in
        f ();
        let t1 = Rr_obs.Clock.monotonic () in
        let mw1 = Gc.minor_words () in
        let g1 = Gc.quick_stat () in
        ns.(i) <- (t1 -. t0) *. 1e9;
        minor.(i) <- mw1 -. mw0;
        major.(i) <- g1.Gc.major_words -. g0.Gc.major_words
      done;
      (* Drain the GC-pause consumer (a no-op unless started) before its
         ring can wrap. *)
      ignore (Rr_obs.Rte.poll ());
      {
        Benchfile.name;
        reps;
        mean_ns = mean ns;
        p50_ns = quantile ns 0.50;
        p95_ns = quantile ns 0.95;
        min_ns = quantile ns 0.0;
        max_ns = quantile ns 1.0;
        gc_minor_words = mean minor;
        gc_major_words = mean major;
      })
    kernels

type pauses = {
  minor_p50_ns : float;
  minor_p99_ns : float;
  major_p50_ns : float;
  major_p99_ns : float;
}

(* Bucket-rank quantiles (ns) of the consumer's pause histograms; 0 for
   an empty histogram. *)
let pause_quantiles name =
  let s = Rr_obs.Histogram.snapshot (Rr_obs.Histogram.make name) in
  let q p =
    let v = Rr_obs.Histogram.quantile s p *. 1e9 in
    if Float.is_nan v then 0.0 else v
  in
  (q 0.5, q 0.99)

let measure_with_pauses ?warmups ?reps kernels =
  ignore (Rr_obs.Rte.start ());
  let results = measure ?warmups ?reps kernels in
  ignore (Rr_obs.Rte.poll ());
  let minor_p50_ns, minor_p99_ns = pause_quantiles Rr_obs.Rte.minor_name in
  let major_p50_ns, major_p99_ns = pause_quantiles Rr_obs.Rte.major_name in
  (results, { minor_p50_ns; minor_p99_ns; major_p50_ns; major_p99_ns })
