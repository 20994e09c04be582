type geometry =
  | Point of Coord.t
  | Line_string of Coord.t list
  | Polygon of Coord.t list

type feature = {
  geometry : geometry;
  properties : (string * string) list;
}

let feature ?(properties = []) geometry = { geometry; properties }

(* GeoJSON positions are [longitude, latitude]. *)
let position c = Printf.sprintf "[%.5f,%.5f]" (Coord.lon c) (Coord.lat c)

let positions coords = "[" ^ String.concat "," (List.map position coords) ^ "]"

let geometry_json = function
  | Point c -> Printf.sprintf {|{"type":"Point","coordinates":%s}|} (position c)
  | Line_string coords ->
    Printf.sprintf {|{"type":"LineString","coordinates":%s}|} (positions coords)
  | Polygon ring ->
    let closed =
      match ring with
      | [] -> []
      | first :: _ ->
        let rec last = function [ x ] -> x | _ :: tl -> last tl | [] -> first in
        if Coord.equal (last ring) first then ring else ring @ [ first ]
    in
    Printf.sprintf {|{"type":"Polygon","coordinates":[%s]}|} (positions closed)

let feature_json f =
  let props =
    List.map
      (fun (k, v) -> Rr_obs.Json.quote k ^ ":" ^ Rr_obs.Json.quote v)
      f.properties
  in
  Printf.sprintf {|{"type":"Feature","geometry":%s,"properties":{%s}}|}
    (geometry_json f.geometry)
    (String.concat "," props)

let feature_collection features =
  Printf.sprintf {|{"type":"FeatureCollection","features":[%s]}|}
    (String.concat "," (List.map feature_json features))

let circle ~center ~radius_miles ?(segments = 48) () =
  if segments < 3 then invalid_arg "Geojson.circle: segments < 3";
  let lat0 = Coord.lat center in
  let miles_per_lon = 69.0 *. Float.max 0.2 (cos (lat0 *. Float.pi /. 180.0)) in
  let ring =
    List.init segments (fun i ->
        let theta = 2.0 *. Float.pi *. float_of_int i /. float_of_int segments in
        let lat =
          Float.max (-89.9)
            (Float.min 89.9 (lat0 +. (radius_miles *. sin theta /. 69.0)))
        in
        let lon =
          Float.max (-179.9)
            (Float.min 179.9
               (Coord.lon center +. (radius_miles *. cos theta /. miles_per_lon)))
        in
        Coord.make ~lat ~lon)
  in
  Polygon ring

let to_file path features =
  let oc = open_out_bin path in
  output_string oc (feature_collection features);
  output_char oc '\n';
  close_out oc
