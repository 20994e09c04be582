let coord lat lon = Rr_geo.Coord.make ~lat ~lon

(* a tight cluster near Kansas plus one outlier on the west coast *)
let cluster_events =
  Array.append
    (Array.init 50 (fun i ->
         coord (38.0 +. (0.01 *. float_of_int (i mod 7))) (-97.0 +. (0.01 *. float_of_int (i mod 5)))))
    [| coord 37.77 (-122.42) |]

(* --- Kernel --- *)

let test_kernel_peak () =
  let at0 = Rr_kde.Kernel.density ~bandwidth:10.0 ~dist_miles:0.0 in
  Alcotest.(check (float 1e-12)) "peak value" (1.0 /. (2.0 *. Float.pi *. 100.0)) at0

let test_kernel_monotone () =
  let d1 = Rr_kde.Kernel.density ~bandwidth:10.0 ~dist_miles:5.0 in
  let d2 = Rr_kde.Kernel.density ~bandwidth:10.0 ~dist_miles:15.0 in
  Alcotest.(check bool) "decreasing in distance" true (d1 > d2)

let test_kernel_log_consistent () =
  let d = Rr_kde.Kernel.density ~bandwidth:25.0 ~dist_miles:40.0 in
  let ld = Rr_kde.Kernel.log_density ~bandwidth:25.0 ~dist_miles:40.0 in
  Alcotest.(check (float 1e-9)) "log matches" (log d) ld

let test_kernel_support () =
  Alcotest.(check (float 1e-9)) "4 bandwidths" 40.0 (Rr_kde.Kernel.support_miles ~bandwidth:10.0)

(* --- Density --- *)

let test_density_validation () =
  Alcotest.check_raises "no events" (Invalid_argument "Density.fit: no events")
    (fun () -> ignore (Rr_kde.Density.fit ~bandwidth:10.0 [||]));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Density.fit: non-positive bandwidth") (fun () ->
      ignore (Rr_kde.Density.fit ~bandwidth:0.0 cluster_events))

let test_density_higher_at_cluster () =
  let density = Rr_kde.Density.fit ~bandwidth:20.0 cluster_events in
  let at_cluster = Rr_kde.Density.eval density (coord 38.0 (-97.0)) in
  let far = Rr_kde.Density.eval density (coord 45.0 (-70.0)) in
  Alcotest.(check bool) "cluster hotter" true (at_cluster > 100.0 *. far)

let test_density_event_count () =
  let density = Rr_kde.Density.fit ~bandwidth:20.0 cluster_events in
  Alcotest.(check int) "count" 51 (Rr_kde.Density.event_count density);
  Alcotest.(check (float 1e-9)) "bandwidth" 20.0 (Rr_kde.Density.bandwidth density)

let test_density_integrates_to_one () =
  (* numerically integrate over a fine grid around the cluster *)
  let density = Rr_kde.Density.fit ~bandwidth:5.0 (Array.sub cluster_events 0 50) in
  let step_deg = 0.05 in
  let acc = ref 0.0 in
  let lat0 = 36.0 and lat1 = 40.0 and lon0 = -99.5 and lon1 = -94.5 in
  let lat = ref lat0 in
  while !lat < lat1 do
    let lon = ref lon0 in
    let cell_h = step_deg *. 69.0 in
    let cell_w = step_deg *. 69.0 *. cos (!lat *. Float.pi /. 180.0) in
    while !lon < lon1 do
      acc := !acc +. (Rr_kde.Density.eval density (coord !lat !lon) *. cell_h *. cell_w);
      lon := !lon +. step_deg
    done;
    lat := !lat +. step_deg
  done;
  Alcotest.(check bool) "mass ~ 1" true (Float.abs (!acc -. 1.0) < 0.05)

let test_log_eval_floored () =
  let density = Rr_kde.Density.fit ~bandwidth:5.0 (Array.sub cluster_events 0 50) in
  let far = Rr_kde.Density.log_eval density (coord 48.0 (-70.0)) in
  Alcotest.(check bool) "finite even far away" true (Float.is_finite far)

(* --- Grid_density --- *)

let test_grid_density_matches_exact () =
  let bandwidth = 60.0 in
  let events = Array.sub cluster_events 0 50 in
  let exact = Rr_kde.Density.fit ~bandwidth events in
  let grid = Rr_kde.Grid_density.fit ~bandwidth events in
  let probe = coord 38.5 (-96.5) in
  let e = Rr_kde.Density.eval exact probe in
  let g = Rr_kde.Grid_density.eval grid probe in
  Alcotest.(check bool) "within 25%" true (Float.abs (g -. e) /. e < 0.25)

let test_grid_density_mass () =
  let grid = Rr_kde.Grid_density.fit ~bandwidth:30.0 (Array.sub cluster_events 0 50) in
  (* sum over cells x cell area should be ~1; cells are ~0.1 x 0.1 deg *)
  let g = Rr_kde.Grid_density.grid grid in
  let rows = Rr_geo.Grid.rows g and cols = Rr_geo.Grid.cols g in
  let box = Rr_geo.Grid.bbox g in
  let lat_span = box.Rr_geo.Bbox.max_lat -. box.Rr_geo.Bbox.min_lat in
  let lon_span = box.Rr_geo.Bbox.max_lon -. box.Rr_geo.Bbox.min_lon in
  let cell_h = lat_span /. float_of_int rows *. 69.0 in
  let mass =
    Rr_geo.Grid.fold g ~init:0.0 ~f:(fun acc row col v ->
        let lat = Rr_geo.Coord.lat (Rr_geo.Grid.coord_of_cell g row col) in
        let cell_w =
          lon_span /. float_of_int cols *. 69.0 *. cos (lat *. Float.pi /. 180.0)
        in
        acc +. (v *. cell_h *. cell_w))
  in
  Alcotest.(check bool) "unit mass" true (Float.abs (mass -. 1.0) < 0.1)

let test_grid_density_outside () =
  let grid = Rr_kde.Grid_density.fit ~bandwidth:30.0 (Array.sub cluster_events 0 50) in
  Alcotest.(check (float 1e-12)) "zero outside raster" 0.0
    (Rr_kde.Grid_density.eval grid (coord 55.0 (-100.0)))

(* --- Grid_density against the per-cell-exp reference scatter --- *)

let with_domains k f =
  let old = Rr_util.Parallel.domain_count () in
  Rr_util.Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Rr_util.Parallel.set_domain_count old) f

(* The straightforward fit: one [exp] per (source cell x stencil cell),
   scattered in source-row chunks merged in chunk order exactly as
   [Grid_density.fit] chunks them. The stencil-table fit must reproduce
   it bit for bit at every pool size. *)
let reference_fit ~rows ~cols ~bandwidth events =
  let box = Rr_geo.Bbox.conus in
  let counts = Rr_geo.Grid.create box ~rows ~cols in
  Array.iter (fun c -> Rr_geo.Grid.deposit counts c 1.0) events;
  let lat_span = box.Rr_geo.Bbox.max_lat -. box.Rr_geo.Bbox.min_lat in
  let lon_span = box.Rr_geo.Bbox.max_lon -. box.Rr_geo.Bbox.min_lon in
  let cell_lat_miles = lat_span /. float_of_int rows *. 69.0 in
  let out = Rr_geo.Grid.create box ~rows ~cols in
  let support = Rr_kde.Kernel.support_miles ~bandwidth in
  let rad_rows = max 1 (int_of_float (Float.ceil (support /. cell_lat_miles))) in
  let inv_2h2 = 0.5 /. (bandwidth *. bandwidth) in
  let norm = 1.0 /. (2.0 *. Float.pi *. bandwidth *. bandwidth) in
  let total_events = float_of_int (Array.length events) in
  let scatter dst lo hi =
    for src_row = lo to hi do
      let src_lat =
        box.Rr_geo.Bbox.max_lat
        -. ((float_of_int src_row +. 0.5) /. float_of_int rows *. lat_span)
      in
      let cell_lon_miles =
        lon_span /. float_of_int cols *. 69.0
        *. Float.max 0.2 (cos (src_lat *. Float.pi /. 180.0))
      in
      let rad_cols = max 1 (int_of_float (Float.ceil (support /. cell_lon_miles))) in
      for src_col = 0 to cols - 1 do
        let mass = Rr_geo.Grid.get counts src_row src_col in
        if mass > 0.0 then
          for dr = -rad_rows to rad_rows do
            let row = src_row + dr in
            if row >= 0 && row < rows then
              for dc = -rad_cols to rad_cols do
                let col = src_col + dc in
                if col >= 0 && col < cols then begin
                  let dy = float_of_int dr *. cell_lat_miles in
                  let dx = float_of_int dc *. cell_lon_miles in
                  let d2 = (dy *. dy) +. (dx *. dx) in
                  let k = norm *. exp (-.d2 *. inv_2h2) in
                  Rr_geo.Grid.add dst row col (mass *. k /. total_events)
                end
              done
          done
      done
    done
  in
  let domains = Rr_util.Parallel.domain_count () in
  if domains <= 1 then scatter out 0 (rows - 1)
  else begin
    let chunks = min rows (2 * domains) in
    for c = 0 to chunks - 1 do
      let lo = c * rows / chunks and hi = ((c + 1) * rows / chunks) - 1 in
      let dst = Rr_geo.Grid.create box ~rows ~cols in
      scatter dst lo hi;
      Rr_geo.Grid.fold dst ~init:() ~f:(fun () row col v ->
          if v <> 0.0 then Rr_geo.Grid.add out row col v)
    done
  end;
  out

let reference_eval grid p =
  match Rr_geo.Grid.cell_of_coord grid p with
  | None -> 0.0
  | Some (row, col) -> Rr_geo.Grid.get grid row col

let bits = Int64.bits_of_float

let same_bits a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let grid_bits g =
  Rr_geo.Grid.fold g ~init:[] ~f:(fun acc _ _ v -> bits v :: acc)

(* Random fits: events scattered over a region a little larger than the
   CONUS box (some fall outside), pinned to its corners and edges, and
   clustered in a few bands so many rows stay empty; bandwidths 1.5 to
   500 miles on rasters from 30 x 60 (stencil wider than the grid) up. *)
let arb_fit =
  let open QCheck.Gen in
  let box = Rr_geo.Bbox.conus in
  let lo_lat = box.Rr_geo.Bbox.min_lat and hi_lat = box.Rr_geo.Bbox.max_lat in
  let lo_lon = box.Rr_geo.Bbox.min_lon and hi_lon = box.Rr_geo.Bbox.max_lon in
  let anywhere =
    map2 (fun lat lon -> coord lat lon)
      (float_range (lo_lat -. 1.0) (hi_lat +. 1.0))
      (float_range (lo_lon -. 1.0) (hi_lon +. 1.0))
  in
  let edge =
    oneofl
      [ coord lo_lat lo_lon; coord hi_lat hi_lon; coord lo_lat hi_lon;
        coord hi_lat lo_lon; coord lo_lat (-97.0); coord hi_lat (-97.0);
        coord 38.0 lo_lon; coord 38.0 hi_lon ]
  in
  let band =
    float_range lo_lat hi_lat >>= fun lat ->
    map (fun lon -> coord lat lon) (float_range lo_lon hi_lon)
  in
  let event = frequency [ (4, anywhere); (1, edge); (3, band) ] in
  let gen =
    let* rows = int_range 30 90 in
    let* cols = int_range 60 160 in
    let* log_h = float_range (log 1.5) (log 500.0) in
    let* events = array_size (int_range 1 40) event in
    let* probes = array_size (int_range 0 30) (frequency [ (3, anywhere); (1, edge) ]) in
    (* probing at event sites hits occupied neighbourhoods *)
    return (rows, cols, exp log_h, events, Array.append events probes)
  in
  QCheck.make
    ~print:(fun (rows, cols, h, events, probes) ->
      Printf.sprintf "rows=%d cols=%d h=%.3f events=%d probes=%d" rows cols h
        (Array.length events) (Array.length probes))
    gen

let fit_matches_reference =
  QCheck.Test.make ~name:"fit is bit-equal to the reference at pools 1, 2, 4"
    ~count:40 arb_fit (fun (rows, cols, bandwidth, events, _) ->
      List.for_all
        (fun k ->
          with_domains k (fun () ->
              let got = Rr_kde.Grid_density.fit ~rows ~cols ~bandwidth events in
              grid_bits (Rr_kde.Grid_density.grid got)
              = grid_bits (reference_fit ~rows ~cols ~bandwidth events)))
        [ 1; 2; 4 ])

let eval_fit_matches_reference =
  QCheck.Test.make
    ~name:"eval_fit is bit-equal to the pool-1 reference at pools 1, 2, 4"
    ~count:40 arb_fit (fun (rows, cols, bandwidth, events, probes) ->
      let reference = with_domains 1 (fun () -> reference_fit ~rows ~cols ~bandwidth events) in
      let expected = Array.map (reference_eval reference) probes in
      List.for_all
        (fun k ->
          with_domains k (fun () ->
              same_bits expected
                (Rr_kde.Grid_density.eval_fit ~rows ~cols ~bandwidth events probes)))
        [ 1; 2; 4 ])

let test_eval_fit_validation () =
  Alcotest.check_raises "no events"
    (Invalid_argument "Grid_density.eval_fit: no events") (fun () ->
      ignore (Rr_kde.Grid_density.eval_fit ~bandwidth:10.0 [||] [||]));
  Alcotest.check_raises "bad bandwidth"
    (Invalid_argument "Grid_density.eval_fit: non-positive bandwidth") (fun () ->
      ignore (Rr_kde.Grid_density.eval_fit ~bandwidth:0.0 cluster_events [||]))

(* --- Bandwidth selection --- *)

let synthetic_cloud sigma n =
  let rng = Rr_util.Prng.create 77L in
  Array.init n (fun _ ->
      let dy, dx = Rr_util.Prng.gaussian2 rng in
      coord (38.0 +. (sigma *. dy /. 69.0)) (-97.0 +. (sigma *. dx /. 54.0)))

let test_bandwidth_reasonable () =
  let events = synthetic_cloud 40.0 600 in
  let selection =
    Rr_kde.Bandwidth.select ~candidates:[| 2.0; 8.0; 25.0; 70.0; 200.0 |]
      ~max_events:600 events
  in
  (* for a 40-mile Gaussian cloud the CV optimum should be an interior
     candidate, not a degenerate extreme *)
  Alcotest.(check bool) "interior optimum" true
    (selection.Rr_kde.Bandwidth.best >= 8.0 && selection.Rr_kde.Bandwidth.best <= 70.0)

let test_bandwidth_scores_shape () =
  let events = synthetic_cloud 40.0 300 in
  let selection =
    Rr_kde.Bandwidth.select ~candidates:[| 5.0; 30.0; 120.0 |] ~max_events:300 events
  in
  Alcotest.(check int) "one score per candidate" 3
    (Array.length selection.Rr_kde.Bandwidth.scores);
  let best_score =
    Array.fold_left (fun acc (_, s) -> Float.min acc s) infinity
      selection.Rr_kde.Bandwidth.scores
  in
  let chosen_score =
    snd
      (Array.get selection.Rr_kde.Bandwidth.scores
         (let rec find i =
            if fst selection.Rr_kde.Bandwidth.scores.(i) = selection.Rr_kde.Bandwidth.best
            then i
            else find (i + 1)
          in
          find 0))
  in
  Alcotest.(check (float 1e-9)) "best has lowest score" best_score chosen_score

let test_bandwidth_subsampling () =
  let events = synthetic_cloud 40.0 2000 in
  let selection =
    Rr_kde.Bandwidth.select ~candidates:[| 10.0; 40.0 |] ~max_events:200 events
  in
  Alcotest.(check int) "capped" 200 selection.Rr_kde.Bandwidth.events_used

let test_bandwidth_validation () =
  let events = synthetic_cloud 40.0 10 in
  Alcotest.check_raises "too few folds"
    (Invalid_argument "Bandwidth.select: need at least two folds") (fun () ->
      ignore (Rr_kde.Bandwidth.select ~folds:1 events));
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Bandwidth.select: no candidates") (fun () ->
      ignore (Rr_kde.Bandwidth.select ~candidates:[||] events))

let test_default_candidates_cover_table1 () =
  let lo = Rr_util.Arrayx.fmin Rr_kde.Bandwidth.default_candidates in
  let hi = Rr_util.Arrayx.fmax Rr_kde.Bandwidth.default_candidates in
  List.iter
    (fun kind ->
      let b = Rr_disaster.Event.paper_bandwidth kind in
      Alcotest.(check bool) "covered" true (b >= lo && b <= hi))
    Rr_disaster.Event.all_kinds

let () =
  Alcotest.run "rr_kde"
    [
      ( "kernel",
        [
          Alcotest.test_case "peak" `Quick test_kernel_peak;
          Alcotest.test_case "monotone" `Quick test_kernel_monotone;
          Alcotest.test_case "log consistent" `Quick test_kernel_log_consistent;
          Alcotest.test_case "support" `Quick test_kernel_support;
        ] );
      ( "density",
        [
          Alcotest.test_case "validation" `Quick test_density_validation;
          Alcotest.test_case "higher at cluster" `Quick test_density_higher_at_cluster;
          Alcotest.test_case "metadata" `Quick test_density_event_count;
          Alcotest.test_case "integrates to one" `Slow test_density_integrates_to_one;
          Alcotest.test_case "log floor" `Quick test_log_eval_floored;
        ] );
      ( "grid_density",
        [
          Alcotest.test_case "matches exact" `Quick test_grid_density_matches_exact;
          Alcotest.test_case "unit mass" `Quick test_grid_density_mass;
          Alcotest.test_case "outside raster" `Quick test_grid_density_outside;
          QCheck_alcotest.to_alcotest fit_matches_reference;
          QCheck_alcotest.to_alcotest eval_fit_matches_reference;
          Alcotest.test_case "eval_fit validation" `Quick test_eval_fit_validation;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "reasonable optimum" `Slow test_bandwidth_reasonable;
          Alcotest.test_case "scores shape" `Quick test_bandwidth_scores_shape;
          Alcotest.test_case "subsampling" `Quick test_bandwidth_subsampling;
          Alcotest.test_case "validation" `Quick test_bandwidth_validation;
          Alcotest.test_case "candidates cover Table 1" `Quick
            test_default_candidates_cover_table1;
        ] );
    ]
