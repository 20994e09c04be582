(* Yen's algorithm over a query's CSR geometry with a (possibly
   directed) arc-weight function. Edge/node removals are expressed by
   wrapping the weight function rather than mutating the graph; banned
   hops get a huge-but-finite cost and any result that still uses one
   is discarded. *)

let banned_cost = 1e15

let yen q ~weight ~src ~dst ~k =
  let tgt = Query.arc_tgt q and mate = Query.arc_mate q in
  let route weight ~src = Query.run ~runner:Plain q ~weight ~src ~dst in
  if k <= 0 then []
  else
    match route weight ~src with
    | None -> []
    | Some first ->
      let accepted = ref [ first ] in
      let candidates : (float * int list) list ref = ref [] in
      let known path =
        List.exists (fun (_, p) -> p = path) !candidates
        || List.exists (fun (_, p) -> p = path) !accepted
      in
      (try
         for _ = 2 to k do
           let _, prev_path = List.hd !accepted in
           let prev = Array.of_list prev_path in
           for i = 0 to Array.length prev - 2 do
             let spur = prev.(i) in
             let root = Array.to_list (Array.sub prev 0 (i + 1)) in
             let root_cost = Query.path_cost q ~weight root in
             (* Ban the next hop of every accepted path sharing this root,
                and every root node before the spur. *)
             let banned_edges =
               List.filter_map
                 (fun (_, p) ->
                   let arr = Array.of_list p in
                   if
                     Array.length arr > i + 1
                     && Array.to_list (Array.sub arr 0 (i + 1)) = root
                   then Some (arr.(i), arr.(i + 1))
                   else None)
                 !accepted
             in
             let banned_nodes = Hashtbl.create 8 in
             List.iteri
               (fun j v -> if j < i then Hashtbl.replace banned_nodes v ())
               root;
             let spur_weight k =
               let u = tgt.(mate.(k)) and v = tgt.(k) in
               if Hashtbl.mem banned_nodes u || Hashtbl.mem banned_nodes v then
                 banned_cost
               else if List.exists (fun (a, b) -> a = u && b = v) banned_edges
               then banned_cost
               else weight k
             in
             match route spur_weight ~src:spur with
             | None -> ()
             | Some (spur_cost, spur_path) ->
               if spur_cost < banned_cost then begin
                 let total_path = root @ List.tl spur_path in
                 let seen = Hashtbl.create 16 in
                 let loopless =
                   List.for_all
                     (fun v ->
                       if Hashtbl.mem seen v then false
                       else begin
                         Hashtbl.add seen v ();
                         true
                       end)
                     total_path
                 in
                 if loopless && not (known total_path) then
                   candidates := (root_cost +. spur_cost, total_path) :: !candidates
               end
           done;
           match List.sort compare !candidates with
           | [] -> raise Exit
           | best :: rest ->
             accepted := best :: !accepted;
             candidates := rest
         done
       with Exit -> ());
      List.rev !accepted
