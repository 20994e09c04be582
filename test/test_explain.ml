(* The risk provenance layer: the per-arc decomposition must reproduce
   the engine's bit-risk-mile totals *bit-for-bit* — on corpus and
   continental topologies, with and without a storm overlay, at any
   pool size — and every surfaced artifact (JSON document, counters,
   query front door) must stay faithful to the record. *)

module Parallel = Rr_util.Parallel
module Context = Rr_engine.Context
module Explain = Rr_explain
module Json = Rr_obs.Json

let with_domains k f =
  let old = Parallel.domain_count () in
  Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count old) f

let pool_sizes = [ 1; 2; 4 ]

let bits = Int64.bits_of_float

let check_bits label a b = Alcotest.(check int64) label (bits a) (bits b)

let explain_exn ?lambda_h ?storm ?tick ctx ~net ~src ~dst =
  match Explain.explain_named ?lambda_h ?storm ?tick ctx ~net ~src ~dst with
  | Ok t -> t
  | Error e -> Alcotest.failf "explain %s %s -> %s failed: %s" net src dst e

(* The decomposition invariants one [side] must satisfy: each arc
   weight replays [miles + kappa * (hist + fcst)] exactly, their left
   fold is [term_sum], and [term_sum] is the engine's own total. *)
let check_side label kappa (s : Explain.side) =
  Alcotest.(check bool) (label ^ ": decomposition flagged exact") true
    s.Explain.exact;
  check_bits
    (label ^ ": term sum reproduces the engine total")
    s.Explain.bit_risk_miles s.Explain.term_sum;
  let fold =
    List.fold_left
      (fun acc (a : Explain.arc) ->
        check_bits
          (Printf.sprintf "%s: arc %d->%d weight replays Eq. 1" label
             a.Explain.tail a.Explain.head)
          (a.Explain.miles +. (kappa *. (a.Explain.hist +. a.Explain.fcst)))
          a.Explain.weight;
        acc +. a.Explain.weight)
      0.0 s.Explain.arcs
  in
  check_bits (label ^ ": arc fold is the term sum") s.Explain.term_sum fold;
  Alcotest.(check int)
    (label ^ ": one arc per hop")
    (max 0 (List.length s.Explain.path - 1))
    (List.length s.Explain.arcs)

(* --- corpus networks, across pool sizes --- *)

let test_corpus_exact_all_pools () =
  let ctx = Context.create () in
  let runs =
    List.map
      (fun k ->
        with_domains k (fun () ->
            (k, explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston")))
      pool_sizes
  in
  List.iter
    (fun (k, t) ->
      let label side = Printf.sprintf "%d domains, %s" k side in
      check_side (label "riskroute") t.Explain.kappa t.Explain.riskroute;
      check_side (label "shortest") t.Explain.kappa t.Explain.shortest)
    runs;
  (* Routing is deterministic: every pool size explains the identical
     route with the identical floats. *)
  match runs with
  | (_, base) :: rest ->
    List.iter
      (fun (k, t) ->
        Alcotest.(check (list int))
          (Printf.sprintf "path at %d domains matches 1 domain" k)
          base.Explain.riskroute.Explain.path t.Explain.riskroute.Explain.path;
        check_bits
          (Printf.sprintf "bit-risk miles at %d domains match 1 domain" k)
          base.Explain.riskroute.Explain.bit_risk_miles
          t.Explain.riskroute.Explain.bit_risk_miles)
      rest
  | [] -> ()

(* The explained sides are the engine's own answers, not a parallel
   reimplementation: path and totals must coincide with [Router]. *)
let test_sides_match_router () =
  let ctx = Context.create () in
  let net = Context.require_net ctx "Level3" in
  let env = Context.env ctx net in
  let pop city =
    match Rr_topology.Net.find_pop net ~city with
    | Some i -> i
    | None -> Alcotest.failf "no %s on Level3" city
  in
  let src = pop "Houston" and dst = pop "Boston" in
  let t =
    match Explain.explain ctx net ~src ~dst with
    | Ok t -> t
    | Error e -> Alcotest.failf "explain failed: %s" e
  in
  (match Riskroute.Router.riskroute env ~src ~dst with
  | None -> Alcotest.fail "router found no riskroute path"
  | Some r ->
    Alcotest.(check (list int)) "riskroute path matches Router"
      r.Riskroute.Router.path t.Explain.riskroute.Explain.path;
    check_bits "riskroute total matches Router"
      r.Riskroute.Router.bit_risk_miles
      t.Explain.riskroute.Explain.bit_risk_miles;
    check_bits "riskroute miles match Router" r.Riskroute.Router.bit_miles
      t.Explain.riskroute.Explain.bit_miles);
  match Riskroute.Router.shortest env ~src ~dst with
  | None -> Alcotest.fail "router found no shortest path"
  | Some r ->
    Alcotest.(check (list int)) "shortest path matches Router"
      r.Riskroute.Router.path t.Explain.shortest.Explain.path;
    check_bits "shortest total matches Router"
      r.Riskroute.Router.bit_risk_miles
      t.Explain.shortest.Explain.bit_risk_miles

(* A storm overlay routes the forecast term through the same
   invariants. *)
let test_storm_overlay_exact () =
  let ctx = Context.create () in
  let t =
    explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston" ~storm:"sandy"
      ~tick:40
  in
  Alcotest.(check bool) "advisory recorded" true (t.Explain.advisory <> None);
  check_side "storm riskroute" t.Explain.kappa t.Explain.riskroute;
  check_side "storm shortest" t.Explain.kappa t.Explain.shortest;
  match
    Explain.explain_named ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston"
      ~storm:"nope"
  with
  | Ok _ -> Alcotest.fail "unknown storm accepted"
  | Error e -> Alcotest.(check bool) "unknown storm named" true (e <> "")

(* --- the continental pipeline, across pool sizes --- *)

let test_continental_exact_all_pools () =
  let ctx = Context.create () in
  let runs =
    List.map
      (fun k ->
        with_domains k (fun () ->
            ( k,
              explain_exn ctx ~net:"continental-2000" ~src:"Chicago"
                ~dst:"Miami" )))
      pool_sizes
  in
  List.iter
    (fun (k, t) ->
      let label side = Printf.sprintf "continental, %d domains, %s" k side in
      check_side (label "riskroute") t.Explain.kappa t.Explain.riskroute;
      check_side (label "shortest") t.Explain.kappa t.Explain.shortest;
      (* No Env at this scale, so no forecast term and no risk
         fingerprint. *)
      check_bits (label "no forecast term") 0.0
        t.Explain.riskroute.Explain.fcst_contribution;
      Alcotest.(check bool) (label "risk fingerprint omitted") false
        (List.mem_assoc "risk" t.Explain.fingerprints))
    runs;
  match runs with
  | (_, base) :: rest ->
    List.iter
      (fun (k, t) ->
        check_bits
          (Printf.sprintf "continental totals at %d domains match 1 domain" k)
          base.Explain.riskroute.Explain.bit_risk_miles
          t.Explain.riskroute.Explain.bit_risk_miles)
      rest
  | [] -> ()

(* --- the JSON document --- *)

let test_json_roundtrip () =
  let ctx = Context.create () in
  let t = explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston" in
  let j =
    match Json.parse (Explain.to_json t) with
    | Ok j -> j
    | Error e -> Alcotest.failf "explain JSON does not parse: %s" e
  in
  let get path j =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  Alcotest.(check (option int)) "schema" (Some Explain.schema_version)
    (Option.bind (get [ "schema" ] j) Json.to_int);
  Alcotest.(check (option string)) "network name" (Some "Level3")
    (Option.bind (get [ "net" ] j) Json.to_str);
  Alcotest.(check bool) "exactness flag serialized" true
    (Option.bind (get [ "riskroute"; "decomposition_exact" ] j) (function
      | Json.Bool b -> Some b
      | _ -> None)
    = Some true);
  (* %.17g round-trips doubles: the parsed total is the record's total,
     bit for bit — external verifiers can re-fold the arcs. *)
  (match
     Option.bind (get [ "riskroute"; "bit_risk_miles" ] j) Json.to_num
   with
  | Some v ->
    check_bits "serialized total round-trips"
      t.Explain.riskroute.Explain.bit_risk_miles v
  | None -> Alcotest.fail "no riskroute.bit_risk_miles in JSON");
  (match Option.bind (get [ "riskroute"; "arcs" ] j) Json.to_arr with
  | Some arcs ->
    Alcotest.(check int) "every arc serialized"
      (List.length t.Explain.riskroute.Explain.arcs)
      (List.length arcs)
  | None -> Alcotest.fail "no riskroute.arcs in JSON");
  match Option.bind (get [ "top_pops" ] j) Json.to_arr with
  | Some pops ->
    Alcotest.(check bool) "top_pops bounded by top_k" true
      (List.length pops <= 5)
  | None -> Alcotest.fail "no top_pops in JSON"

(* --- the query front door (the /explain provider body) --- *)

let test_of_query () =
  let ctx = Context.create () in
  (match
     Explain.of_query ctx
       [ ("net", "Level3"); ("src", "Houston"); ("dst", "Boston") ]
   with
  | Error e -> Alcotest.failf "of_query failed: %s" e
  | Ok body -> (
    match Json.parse body with
    | Error e -> Alcotest.failf "of_query body does not parse: %s" e
    | Ok j ->
      Alcotest.(check (option string)) "query body names the net"
        (Some "Level3")
        (Option.bind (Json.member "net" j) Json.to_str)));
  (match Explain.of_query ctx [ ("net", "Level3"); ("src", "Houston") ] with
  | Ok _ -> Alcotest.fail "missing dst accepted"
  | Error e ->
    Alcotest.(check bool) "missing parameter named" true
      (let needle = "dst" in
       let n = String.length needle and m = String.length e in
       let rec go i =
         i + n <= m && (String.sub e i n = needle || go (i + 1))
       in
       go 0));
  match Explain.of_query ctx [ ("net", "nope"); ("src", "a"); ("dst", "b") ] with
  | Ok _ -> Alcotest.fail "unknown network accepted"
  | Error e -> Alcotest.(check bool) "unknown network is an error" true (e <> "")

(* --- telemetry --- *)

let test_counters_bump () =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let requests = Rr_obs.Counter.make "explain.requests" in
  let errors = Rr_obs.Counter.make "explain.errors" in
  let seconds = Rr_obs.Histogram.make "explain.seconds" in
  let r0 = Rr_obs.Counter.value requests in
  let e0 = Rr_obs.Counter.value errors in
  let h0 = (Rr_obs.Histogram.snapshot seconds).Rr_obs.Histogram.count in
  let ctx = Context.create () in
  ignore (explain_exn ctx ~net:"Level3" ~src:"Houston" ~dst:"Boston");
  Alcotest.(check int) "a request is counted" (r0 + 1)
    (Rr_obs.Counter.value requests);
  Alcotest.(check int) "a success is not an error" e0
    (Rr_obs.Counter.value errors);
  Alcotest.(check int) "latency observed" (h0 + 1)
    (Rr_obs.Histogram.snapshot seconds).Rr_obs.Histogram.count;
  (match Explain.explain_named ctx ~net:"Level3" ~src:"Houston" ~dst:"Nope" with
  | Ok _ -> Alcotest.fail "unknown pop accepted"
  | Error _ -> ());
  Alcotest.(check int) "a failure is counted as an error" (e0 + 1)
    (Rr_obs.Counter.value errors)

let () =
  Alcotest.run "explain"
    [
      ( "decomposition",
        [
          Alcotest.test_case "corpus exact at pool sizes 1/2/4" `Quick
            test_corpus_exact_all_pools;
          Alcotest.test_case "sides are the router's answers" `Quick
            test_sides_match_router;
          Alcotest.test_case "storm overlay exact" `Quick
            test_storm_overlay_exact;
          Alcotest.test_case "continental exact at pool sizes 1/2/4" `Quick
            test_continental_exact_all_pools;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "json round-trips bit-for-bit" `Quick
            test_json_roundtrip;
          Alcotest.test_case "query front door" `Quick test_of_query;
          Alcotest.test_case "explain counters bump" `Quick test_counters_bump;
        ] );
    ]
