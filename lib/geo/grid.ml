type t = {
  bbox : Bbox.t;
  rows : int;
  cols : int;
  cells : float array; (* row-major, row 0 = northern edge *)
}

let create bbox ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Grid.create: non-positive size";
  { bbox; rows; cols; cells = Array.make (rows * cols) 0.0 }

let rows t = t.rows

let cols t = t.cols

let bbox t = t.bbox

let lat_span t = t.bbox.Bbox.max_lat -. t.bbox.Bbox.min_lat

let lon_span t = t.bbox.Bbox.max_lon -. t.bbox.Bbox.min_lon

let locate bbox ~rows ~cols c =
  if not (Bbox.contains bbox c) then None
  else begin
    (* Row 0 is the northern edge: invert the latitude fraction. *)
    let lat_span = bbox.Bbox.max_lat -. bbox.Bbox.min_lat in
    let lon_span = bbox.Bbox.max_lon -. bbox.Bbox.min_lon in
    let frac_lat = (bbox.Bbox.max_lat -. Coord.lat c) /. lat_span in
    let frac_lon = (Coord.lon c -. bbox.Bbox.min_lon) /. lon_span in
    let row = min (rows - 1) (int_of_float (frac_lat *. float_of_int rows)) in
    let col = min (cols - 1) (int_of_float (frac_lon *. float_of_int cols)) in
    Some (row, col)
  end

let cell_of_coord t c = locate t.bbox ~rows:t.rows ~cols:t.cols c

let coord_of_cell t row col =
  let lat =
    t.bbox.Bbox.max_lat
    -. ((float_of_int row +. 0.5) /. float_of_int t.rows *. lat_span t)
  in
  let lon =
    t.bbox.Bbox.min_lon
    +. ((float_of_int col +. 0.5) /. float_of_int t.cols *. lon_span t)
  in
  Coord.make ~lat ~lon

let index t row col =
  assert (row >= 0 && row < t.rows && col >= 0 && col < t.cols);
  (row * t.cols) + col

let get t row col = t.cells.(index t row col)

let set t row col v = t.cells.(index t row col) <- v

let add t row col v = t.cells.(index t row col) <- t.cells.(index t row col) +. v

let cells t = t.cells

let deposit t c mass =
  match cell_of_coord t c with
  | None -> ()
  | Some (row, col) -> add t row col mass

let map_inplace t f =
  for i = 0 to Array.length t.cells - 1 do
    t.cells.(i) <- f t.cells.(i)
  done

let fold t ~init ~f =
  let acc = ref init in
  for row = 0 to t.rows - 1 do
    for col = 0 to t.cols - 1 do
      acc := f !acc row col t.cells.((row * t.cols) + col)
    done
  done;
  !acc

let total t = Rr_util.Arrayx.fsum t.cells

let max_value t = Array.fold_left Float.max 0.0 t.cells

let normalize t =
  let sum = total t in
  if sum > 0.0 then map_inplace t (fun v -> v /. sum)

let mass_in t box =
  fold t ~init:0.0 ~f:(fun acc row col v ->
      if Bbox.contains box (coord_of_cell t row col) then acc +. v else acc)

let ramp = " .:-=+*#%@"

let render_ascii ?(width = 72) ?(height = 24) t =
  let buf = Buffer.create (width * height) in
  let vmax =
    (* Use a robust maximum so one hot cell does not wash out the map. *)
    let values =
      fold t ~init:[] ~f:(fun acc _ _ v -> if v > 0.0 then v :: acc else acc)
    in
    match List.sort Float.compare values with
    | [] -> 1.0
    | sorted ->
      let arr = Array.of_list sorted in
      arr.(min (Array.length arr - 1) (Array.length arr * 98 / 100))
  in
  for out_row = 0 to height - 1 do
    for out_col = 0 to width - 1 do
      (* Aggregate the source cells behind this output character. *)
      let r0 = out_row * t.rows / height and r1 = max 1 ((out_row + 1) * t.rows / height) in
      let c0 = out_col * t.cols / width and c1 = max 1 ((out_col + 1) * t.cols / width) in
      let acc = ref 0.0 and n = ref 0 in
      for r = r0 to min (t.rows - 1) (r1 - 1) do
        for c = c0 to min (t.cols - 1) (c1 - 1) do
          acc := !acc +. get t r c;
          incr n
        done
      done;
      let v = if !n = 0 then 0.0 else !acc /. float_of_int !n in
      let frac = Float.min 1.0 (v /. vmax) in
      let idx = int_of_float (frac *. float_of_int (String.length ramp - 1)) in
      Buffer.add_char buf ramp.[idx]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
