type t = {
  bandwidth : float;
  grid : Rr_geo.Grid.t;
}

let default_rows = 250

let default_cols = 580

let c_fits = Rr_obs.Counter.make "kde.grid_fits"

let c_events = Rr_obs.Counter.make "kde.events_deposited"

let h_sweep = Rr_obs.Histogram.make "kde.sweep_seconds"

(* Raster geometry and kernel constants of one (rows, cols, bandwidth).
   The row radius is clipped to the raster: a stencil taller than the
   grid reaches no further than its far edge. *)
type stencil = {
  box : Rr_geo.Bbox.t;
  rows : int;
  cols : int;
  lat_span : float;
  lon_span : float;
  cell_lat_miles : float;
  support : float;
  rad_rows : int;
  inv_2h2 : float;
  norm : float;
}

let stencil ~rows ~cols ~bandwidth =
  let box = Rr_geo.Bbox.conus in
  let lat_span = box.Rr_geo.Bbox.max_lat -. box.Rr_geo.Bbox.min_lat in
  let lon_span = box.Rr_geo.Bbox.max_lon -. box.Rr_geo.Bbox.min_lon in
  let cell_lat_miles = lat_span /. float_of_int rows *. 69.0 in
  let support = Kernel.support_miles ~bandwidth in
  let rad_rows = max 1 (int_of_float (Float.ceil (support /. cell_lat_miles))) in
  {
    box;
    rows;
    cols;
    lat_span;
    lon_span;
    cell_lat_miles;
    support;
    rad_rows = min (rows - 1) rad_rows;
    inv_2h2 = 0.5 /. (bandwidth *. bandwidth);
    norm = 1.0 /. (2.0 *. Float.pi *. bandwidth *. bandwidth);
  }

(* Cell width (miles) and clipped column radius of a source row: the
   longitude scale shrinks with the cosine of the row's latitude. *)
let row_geometry s src_row =
  let src_lat =
    s.box.Rr_geo.Bbox.max_lat
    -. ((float_of_int src_row +. 0.5) /. float_of_int s.rows *. s.lat_span)
  in
  let cell_lon_miles =
    s.lon_span /. float_of_int s.cols *. 69.0
    *. Float.max 0.2 (cos (src_lat *. Float.pi /. 180.0))
  in
  let rad_cols = max 1 (int_of_float (Float.ceil (s.support /. cell_lon_miles))) in
  (cell_lon_miles, min (s.cols - 1) rad_cols)

(* The source row's kernel weights, entry [adr * (rad_cols + 1) + adc]
   for the cell [adr] rows and [adc] columns away. This is the only place
   the Gaussian is evaluated, so [fit] and [eval_fit] agree bit for bit
   (the offsets' signs vanish in the squares). *)
let fill_table s ~cell_lon_miles ~rad_cols table =
  let stride = rad_cols + 1 in
  for adr = 0 to s.rad_rows do
    let dy = float_of_int adr *. s.cell_lat_miles in
    for adc = 0 to rad_cols do
      let dx = float_of_int adc *. cell_lon_miles in
      let d2 = (dy *. dy) +. (dx *. dx) in
      table.((adr * stride) + adc) <- s.norm *. exp (-.d2 *. s.inv_2h2)
    done
  done

let validate ~what ~bandwidth events =
  if bandwidth <= 0.0 then
    invalid_arg (Printf.sprintf "Grid_density.%s: non-positive bandwidth" what);
  if Array.length events = 0 then
    invalid_arg (Printf.sprintf "Grid_density.%s: no events" what)

let fit ?(rows = default_rows) ?(cols = default_cols) ~bandwidth events =
 Rr_obs.with_kernel "kde.grid_fit" @@ fun () ->
  let tel = Rr_obs.enabled () in
  if tel then begin
    Rr_obs.Counter.incr c_fits;
    Rr_obs.Counter.add c_events (Array.length events)
  end;
  validate ~what:"fit" ~bandwidth events;
  let s = stencil ~rows ~cols ~bandwidth in
  (* Events outside the box are dropped but still count towards the
     normalisation. *)
  let counts = Rr_geo.Grid.create s.box ~rows ~cols in
  Array.iter (fun c -> Rr_geo.Grid.deposit counts c 1.0) events;
  let mass_at = Rr_geo.Grid.cells counts in
  let out = Rr_geo.Grid.create s.box ~rows ~cols in
  let total_events = float_of_int (Array.length events) in
  let rr = s.rad_rows in
  let widest =
    let w = ref 0 in
    for src_row = 0 to rows - 1 do
      w := max !w (snd (row_geometry s src_row))
    done;
    !w
  in
  (* Scatter each non-empty source cell onto its neighbourhood. This runs
     over occupied cells only, which is far cheaper than gathering into
     every output cell when events cluster. An occupied row fills its
     weight table once, into a buffer the sweep reuses row after row. *)
  let scatter dst lo hi =
    let cells = Rr_geo.Grid.cells dst in
    let table = Array.make ((rr + 1) * (widest + 1)) 0.0 in
    for src_row = lo to hi do
      let rad_cols = ref (-1) in
      for src_col = 0 to cols - 1 do
        let mass = mass_at.((src_row * cols) + src_col) in
        if mass > 0.0 then begin
          if !rad_cols < 0 then begin
            let cell_lon_miles, rc = row_geometry s src_row in
            fill_table s ~cell_lon_miles ~rad_cols:rc table;
            rad_cols := rc
          end;
          let rc = !rad_cols in
          for row = max 0 (src_row - rr) to min (rows - 1) (src_row + rr) do
            let t0 = abs (row - src_row) * (rc + 1) and o0 = row * cols in
            for col = max 0 (src_col - rc) to min (cols - 1) (src_col + rc) do
              let k = table.(t0 + abs (col - src_col)) in
              cells.(o0 + col) <- cells.(o0 + col) +. (mass *. k /. total_events)
            done
          done
        end
      done
    done
  in
  (* Per-sweep timing: one observation per contiguous source-row sweep
     (the whole grid sequentially, or each chunk on the pool). *)
  let timed_scatter dst lo hi =
    if tel then begin
      let t0 = Rr_obs.Clock.monotonic () in
      scatter dst lo hi;
      Rr_obs.Histogram.observe h_sweep (Rr_obs.Clock.monotonic () -. t0)
    end
    else scatter dst lo hi
  in
  let domains = Rr_util.Parallel.domain_count () in
  if domains <= 1 then timed_scatter out 0 (rows - 1)
  else begin
    (* Source-row chunks scatter into private grids (their output
       neighbourhoods overlap by the kernel radius), merged in chunk
       order. Summation order differs from the sequential pass, so
       densities agree only to rounding when more than one domain runs;
       a single-domain pool reproduces the sequential result exactly. *)
    let chunks = min rows (2 * domains) in
    let partials =
      Rr_util.Parallel.map_array
        (fun c ->
          let lo = c * rows / chunks and hi = ((c + 1) * rows / chunks) - 1 in
          let dst = Rr_geo.Grid.create s.box ~rows ~cols in
          timed_scatter dst lo hi;
          dst)
        (Array.init chunks (fun c -> c))
    in
    let merged = Rr_geo.Grid.cells out in
    Array.iter
      (fun partial ->
        Array.iteri
          (fun i v -> if v <> 0.0 then merged.(i) <- merged.(i) +. v)
          (Rr_geo.Grid.cells partial))
      partials
  end;
  { bandwidth; grid = out }

let eval_fit ?(rows = default_rows) ?(cols = default_cols) ~bandwidth events probes =
  Rr_obs.with_kernel "kde.holdout" @@ fun () ->
  validate ~what:"eval_fit" ~bandwidth events;
  if rows <= 0 || cols <= 0 then invalid_arg "Grid_density.eval_fit: non-positive size";
  let s = stencil ~rows ~cols ~bandwidth in
  let cell_of p =
    match Rr_geo.Grid.locate s.box ~rows ~cols p with
    | None -> -1
    | Some (row, col) -> (row * cols) + col
  in
  (* Sparse counts: the occupied cells in row-major order with their
     event counts (sums of 1.0, as a deposit makes them), and each row's
     slice [row_start.(r), row_start.(r + 1)) of them. *)
  let binned = Array.map cell_of events in
  Array.sort Int.compare binned;
  let occ_col = Array.make (Array.length binned) 0 in
  let occ_mass = Array.make (Array.length binned) 0.0 in
  let row_start = Array.make (rows + 1) 0 in
  let occupied = ref 0 in
  Array.iteri
    (fun i idx ->
      if idx >= 0 then
        if i > 0 && binned.(i - 1) = idx then
          occ_mass.(!occupied - 1) <- occ_mass.(!occupied - 1) +. 1.0
        else begin
          occ_col.(!occupied) <- idx mod cols;
          occ_mass.(!occupied) <- 1.0;
          incr occupied;
          row_start.((idx / cols) + 1) <- !occupied
        end)
    binned;
  for r = 1 to rows do
    row_start.(r) <- max row_start.(r) row_start.(r - 1)
  done;
  let total_events = float_of_int (Array.length events) in
  let rr = s.rad_rows in
  let tables =
    Rr_util.Parallel.map_array
      (fun src_row ->
        if row_start.(src_row + 1) = row_start.(src_row) then (-1, [||])
        else begin
          let cell_lon_miles, rad_cols = row_geometry s src_row in
          let table = Array.make ((rr + 1) * (rad_cols + 1)) 0.0 in
          fill_table s ~cell_lon_miles ~rad_cols table;
          (rad_cols, table)
        end)
      (Array.init rows Fun.id)
  in
  (* One cell's density, summed in the sequential scatter's order
     (source row, then source column, ascending) so it matches a
     single-domain [fit] exactly. *)
  let gather idx =
    let row = idx / cols and col = idx mod cols in
    let acc = ref 0.0 in
    for src_row = max 0 (row - rr) to min (rows - 1) (row + rr) do
      let rc, table = tables.(src_row) in
      let t0 = abs (row - src_row) * (rc + 1) in
      (* first occupied column of the row at or after [col - rc] *)
      let lo = ref row_start.(src_row) and hi = ref row_start.(src_row + 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if occ_col.(mid) < col - rc then lo := mid + 1 else hi := mid
      done;
      let k = ref !lo in
      while !k < row_start.(src_row + 1) && occ_col.(!k) <= col + rc do
        let w = table.(t0 + abs (col - occ_col.(!k))) in
        acc := !acc +. (occ_mass.(!k) *. w /. total_events);
        incr k
      done
    done;
    !acc
  in
  let probe_cells = Array.map cell_of probes in
  let distinct =
    List.sort_uniq Int.compare
      (List.filter (fun i -> i >= 0) (Array.to_list probe_cells))
    |> Array.of_list
  in
  let values = Rr_util.Parallel.map_array gather distinct in
  let rec find idx lo hi =
    let mid = (lo + hi) / 2 in
    if distinct.(mid) = idx then values.(mid)
    else if distinct.(mid) < idx then find idx (mid + 1) hi
    else find idx lo (mid - 1)
  in
  Array.map
    (fun idx -> if idx < 0 then 0.0 else find idx 0 (Array.length distinct - 1))
    probe_cells

let bandwidth t = t.bandwidth

let eval t point =
  match Rr_geo.Grid.cell_of_coord t.grid point with
  | None -> 0.0
  | Some (row, col) -> Rr_geo.Grid.get t.grid row col

let grid t = t.grid
