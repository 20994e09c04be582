type repair = {
  failed_link : (int * int) option;
  failed_node : int option;
  route : Router.route option;
}

type plan = {
  primary : Router.route;
  repairs : repair list;
}

let banned_cost = 1e15

let route_avoiding env ~src ~dst ~banned_links ~banned_nodes =
  let kappa = Env.kappa env src dst in
  let node_banned = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace node_banned v ()) banned_nodes;
  let link_banned = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace link_banned (u, v) ();
      Hashtbl.replace link_banned (v, u) ())
    banned_links;
  let tgt = Env.arc_tgt env and mate = Env.arc_mate env in
  let miles = Env.arc_miles env and risk = Env.arc_risk env in
  let weight k =
    let u = tgt.(mate.(k)) and v = tgt.(k) in
    if Hashtbl.mem node_banned u || Hashtbl.mem node_banned v then banned_cost
    else if Hashtbl.mem link_banned (u, v) then banned_cost
    else miles.(k) +. (kappa *. risk.(k))
  in
  match Rr_graph.Query.run ~runner:Plain (Env.query env) ~weight ~src ~dst with
  | Some (cost, path) when cost < banned_cost ->
    Some (Router.route_of_path env path)
  | Some _ | None -> None

let plan env ~src ~dst =
  match Router.riskroute env ~src ~dst with
  | None -> None
  | Some primary ->
    let path = Array.of_list primary.Router.path in
    let link_repairs =
      List.init
        (Array.length path - 1)
        (fun i ->
          let link = (path.(i), path.(i + 1)) in
          {
            failed_link = Some link;
            failed_node = None;
            route = route_avoiding env ~src ~dst ~banned_links:[ link ] ~banned_nodes:[];
          })
    in
    let node_repairs =
      List.init
        (max 0 (Array.length path - 2))
        (fun i ->
          let node = path.(i + 1) in
          {
            failed_link = None;
            failed_node = Some node;
            route = route_avoiding env ~src ~dst ~banned_links:[] ~banned_nodes:[ node ];
          })
    in
    Some { primary; repairs = link_repairs @ node_repairs }

let coverage plan =
  match plan.repairs with
  | [] -> 1.0
  | repairs ->
    let covered =
      List.length (List.filter (fun r -> r.route <> None) repairs)
    in
    float_of_int covered /. float_of_int (List.length repairs)

let worst_stretch plan =
  List.fold_left
    (fun acc r ->
      match r.route with
      | Some route when plan.primary.Router.bit_miles > 0.0 ->
        Float.max acc (route.Router.bit_miles /. plan.primary.Router.bit_miles)
      | Some _ | None -> acc)
    1.0 plan.repairs
