open Rr_util

type selection = {
  best : float;
  scores : (float * float) array;
  events_used : int;
}

type scorer = Exact | Grid

(* Raster resolution adapted to the candidate bandwidth: cells of about a
   third of the bandwidth resolve the density without wasting memory. *)
let grid_dims bandwidth =
  let cell_miles = Float.max 2.0 (Float.min 60.0 (bandwidth /. 3.0)) in
  let rows = max 30 (int_of_float (25.0 *. 69.0 /. cell_miles)) in
  let cols = max 60 (int_of_float (58.5 *. 54.0 /. cell_miles)) in
  (rows, cols)

let default_candidates =
  (* 16 log-spaced candidates covering 1.5 - 500 miles. *)
  let lo = log 1.5 and hi = log 500.0 in
  Array.init 16 (fun i ->
      exp (lo +. (float_of_int i /. 15.0 *. (hi -. lo))))

let select ?rng ?(candidates = default_candidates) ?(folds = 5) ?(max_events = 4000)
    ?(scorer = Exact) events =
  if Array.length candidates = 0 then invalid_arg "Bandwidth.select: no candidates";
  if folds < 2 then invalid_arg "Bandwidth.select: need at least two folds";
  let rng = match rng with Some r -> r | None -> Prng.create 0xBA_4DL in
  let sample = Sampling.reservoir rng ~k:max_events events in
  let n = Array.length sample in
  if n < folds then invalid_arg "Bandwidth.select: fewer events than folds";
  Prng.shuffle rng sample;
  (* Fold f holds out indices congruent to f mod folds. *)
  let splits =
    Array.init folds (fun f ->
        let train =
          Array.of_seq
            (Seq.filter_map
               (fun i -> if i mod folds <> f then Some sample.(i) else None)
               (Seq.init n Fun.id))
        in
        let test =
          Array.of_seq
            (Seq.filter_map
               (fun i -> if i mod folds = f then Some sample.(i) else None)
               (Seq.init n Fun.id))
        in
        (train, test))
  in
  let score_candidate h =
    let fold_scores =
      Array.map
        (fun (train, test) ->
          if Array.length train = 0 || Array.length test = 0 then 0.0
          else begin
            match scorer with
            | Exact ->
              let density = Density.fit ~bandwidth:h train in
              Rr_stats.Divergence.holdout_score
                ~log_density:(fun i -> Density.log_eval density test.(i))
                ~n:(Array.length test)
            | Grid ->
              let rows, cols = grid_dims h in
              let density = Grid_density.eval_fit ~rows ~cols ~bandwidth:h train test in
              let floor_density = 1e-12 /. (2.0 *. Float.pi *. h *. h) in
              Rr_stats.Divergence.holdout_score
                ~log_density:(fun i -> log (Float.max floor_density density.(i)))
                ~n:(Array.length test)
          end)
        splits
    in
    Arrayx.fmean fold_scores
  in
  let scores = Array.map (fun h -> (h, score_candidate h)) candidates in
  let best_idx = Arrayx.argmin (Array.map snd scores) in
  { best = fst scores.(best_idx); scores; events_used = n }
