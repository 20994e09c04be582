(* Count, total time and self time per span name over a set of Rr_obs
   spans. A span's self time is its duration minus the durations of its
   children that ran on the same domain; children on other domains (pool
   tasks parented across the queue) run beside their parent rather than
   inside it, so they are not subtracted. *)

type row = { name : string; calls : int; total_s : float; self_s : float }

let of_spans (spans : Rr_obs.span list) =
  let domain_of = Hashtbl.create 1024 in
  List.iter
    (fun (s : Rr_obs.span) -> Hashtbl.replace domain_of s.sp_id s.sp_domain)
    spans;
  let nested = Hashtbl.create 1024 in
  List.iter
    (fun (s : Rr_obs.span) ->
      if Hashtbl.find_opt domain_of s.sp_parent = Some s.sp_domain then
        Hashtbl.replace nested s.sp_parent
          (s.sp_dur
          +. Option.value (Hashtbl.find_opt nested s.sp_parent) ~default:0.0))
    spans;
  let rows = Hashtbl.create 64 in
  List.iter
    (fun (s : Rr_obs.span) ->
      let self =
        s.sp_dur -. Option.value (Hashtbl.find_opt nested s.sp_id) ~default:0.0
      in
      let r =
        Option.value
          (Hashtbl.find_opt rows s.sp_name)
          ~default:{ name = s.sp_name; calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      Hashtbl.replace rows s.sp_name
        {
          r with
          calls = r.calls + 1;
          total_s = r.total_s +. s.sp_dur;
          self_s = r.self_s +. self;
        })
    spans;
  List.sort
    (fun a b -> compare a.name b.name)
    (Hashtbl.fold (fun _ r acc -> r :: acc) rows [])

let find rows name = List.find_opt (fun r -> r.name = name) rows

let to_json rows =
  String.concat ","
    (List.map
       (fun r ->
         Printf.sprintf
           "{\"name\":%S,\"calls\":%d,\"total_s\":%.9f,\"self_s\":%.9f}" r.name
           r.calls r.total_s r.self_s)
       rows)
