(* The multicore execution engine: pool primitives, and end-to-end
   determinism of every parallelised sweep — results must be exactly
   equal (bit-identical floats) whether the pool runs 1 domain or
   several. *)

open Riskroute
module Parallel = Rr_util.Parallel

let coord lat lon = Rr_geo.Coord.make ~lat ~lon

let with_domains k f =
  let old = Parallel.domain_count () in
  Parallel.set_domain_count k;
  Fun.protect ~finally:(fun () -> Parallel.set_domain_count old) f

(* --- pool primitives --- *)

let map_matches_sequential =
  QCheck.Test.make ~name:"map_array agrees with Array.map at any pool size"
    ~count:50
    QCheck.(pair (int_range 1 5) (array_of_size (QCheck.Gen.int_range 0 200) small_int))
    (fun (domains, a) ->
      let f x = (x * 31) + (x mod 7) in
      with_domains domains (fun () -> Parallel.map_array f a = Array.map f a))

let fold_matches_sequential =
  QCheck.Test.make ~name:"fold reduces in index order at any pool size"
    ~count:50
    QCheck.(pair (int_range 1 5) (int_range 0 300))
    (fun (domains, n) ->
      let f i = float_of_int (i * i) /. 3.0 in
      let seq = ref 0.0 in
      for i = 0 to n - 1 do
        seq := !seq +. f i
      done;
      with_domains domains (fun () ->
          Parallel.fold n ~f ~init:0.0 ~combine:( +. ) = !seq))

let test_parallel_for_covers () =
  with_domains 4 (fun () ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Parallel.parallel_for n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each index exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_nested_no_deadlock () =
  (* Caller participation must keep nested parallel calls from starving
     the queue even when tasks outnumber workers. *)
  with_domains 2 (fun () ->
      let outer =
        Parallel.map_array
          (fun i ->
            Parallel.fold 50
              ~f:(fun j -> i + j)
              ~init:0
              ~combine:( + ))
          (Array.init 8 (fun i -> i))
      in
      let expected = Array.init 8 (fun i -> (50 * i) + (50 * 49 / 2)) in
      Alcotest.(check (array int)) "nested results" expected outer)

let test_exception_propagates () =
  with_domains 3 (fun () ->
      Alcotest.check_raises "worker exception reaches caller"
        (Failure "boom") (fun () ->
          Parallel.parallel_for 100 (fun i -> if i = 57 then failwith "boom")))

(* --- RISKROUTE_DOMAINS parsing --- *)

let env_var = "RISKROUTE_DOMAINS"

(* [Unix.putenv] cannot unset; "" is documented to behave as unset. *)
let with_env value f =
  let old = Option.value (Sys.getenv_opt env_var) ~default:"" in
  Unix.putenv env_var value;
  Fun.protect ~finally:(fun () -> Unix.putenv env_var old) f

let test_env_count_valid () =
  with_env " 4 " (fun () ->
      Alcotest.(check (option int)) "surrounding whitespace accepted"
        (Some 4) (Parallel.env_count ()))

let test_env_count_empty_silent () =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let c = Rr_obs.Counter.make "parallel.env_invalid" in
  let before = Rr_obs.Counter.value c in
  with_env "" (fun () ->
      Alcotest.(check (option int)) "empty is unset" None (Parallel.env_count ()));
  with_env "   " (fun () ->
      Alcotest.(check (option int)) "blank is unset" None (Parallel.env_count ()));
  Alcotest.(check int) "no warning for unset" before (Rr_obs.Counter.value c)

let test_env_count_invalid () =
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let c = Rr_obs.Counter.make "parallel.env_invalid" in
  let before = Rr_obs.Counter.value c in
  List.iter
    (fun bad ->
      with_env bad (fun () ->
          Alcotest.(check (option int))
            (Printf.sprintf "%S rejected" bad)
            None (Parallel.env_count ())))
    [ "0"; "-3"; "garbage" ];
  Alcotest.(check int) "each rejection counted" (before + 3)
    (Rr_obs.Counter.value c)

(* --- sweep determinism across pool sizes --- *)

(* A 14-node topology with parallel risk/distance trade-offs: a coastal
   chain, an inland chain, and cross links, so riskroute/shortest differ
   and greedy augmentation has real candidates. *)
let scatter_env () =
  let coords =
    [|
      coord 29.76 (-95.37); coord 30.27 (-89.09); coord 29.95 (-90.07);
      coord 30.69 (-88.04); coord 30.33 (-81.66); coord 32.08 (-81.09);
      coord 33.75 (-84.39); coord 35.15 (-90.05); coord 36.16 (-86.78);
      coord 33.52 (-86.80); coord 32.30 (-90.18); coord 34.74 (-92.33);
      coord 35.47 (-97.52); coord 32.78 (-96.80);
    |]
  in
  let n = Array.length coords in
  let graph =
    Rr_graph.Graph.of_edges n
      [
        (0, 2); (2, 1); (1, 3); (3, 4); (4, 5);
        (0, 13); (13, 12); (12, 11); (11, 7); (7, 8); (8, 6); (6, 5);
        (2, 10); (10, 9); (9, 6); (3, 9); (11, 8); (13, 10);
      ]
  in
  let impact = Array.init n (fun i -> 0.01 +. (0.013 *. float_of_int i)) in
  let historical = Array.init n (fun i -> 1e-6 *. float_of_int ((i * 7 mod 11) + 1)) in
  let forecast = Array.init n (fun i -> 1e-4 *. float_of_int (i mod 3)) in
  Env.make ~graph ~coords ~impact ~historical ~forecast ()

let abilene_env () =
  let candidates =
    [ "data/abilene.gml"; "../data/abilene.gml"; "../../data/abilene.gml";
      "../../../data/abilene.gml"; "../../../../data/abilene.gml" ]
  in
  Option.map
    (fun path -> Env.of_net (Rr_topology.Gml_io.of_file path))
    (List.find_opt Sys.file_exists candidates)

let pool_sizes = [ 1; 4 ]

(* Run [compute] at each pool size and insist every result is exactly
   equal (structural equality covers float bit patterns) to the 1-domain
   run, which in turn is the plain sequential code path. *)
let check_pool_invariant ?(sizes = pool_sizes) name compute =
  let results = List.map (fun k -> with_domains k compute) sizes in
  match results with
  | baseline :: rest ->
    List.iteri
      (fun i r ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: pool size %d exact" name (List.nth sizes (i + 1)))
          true (r = baseline))
      rest
  | [] -> ()

let test_total_bit_risk_invariant () =
  let env = scatter_env () in
  check_pool_invariant "total_bit_risk" (fun () -> Augment.total_bit_risk env)

let test_greedy_invariant () =
  let env = scatter_env () in
  check_pool_invariant "greedy k=3" (fun () ->
      List.map
        (fun (p : Augment.pick) -> (p.Augment.u, p.Augment.v, p.Augment.total_after))
        (Augment.greedy ~k:3 env))

let test_ratios_invariant () =
  let env = scatter_env () in
  check_pool_invariant "intradomain ratios" (fun () ->
      let r = Ratios.intradomain ~pair_cap:120 env in
      (r.Ratios.risk_reduction, r.Ratios.distance_increase, r.Ratios.pairs))

let test_outagesim_invariant () =
  let env = scatter_env () in
  check_pool_invariant "outage simulation" (fun () ->
      let r = Outagesim.run ~scenario_count:40 ~pair_cap:40 env in
      ( r.Outagesim.shortest_survival,
        r.Outagesim.riskroute_survival,
        r.Outagesim.reactive_survival,
        r.Outagesim.endpoint_loss ))

let test_census_invariant () =
  let blocks = Rr_census.Synthetic.generate ~blocks:2_000 () in
  let sites = Array.map Env.coords [| scatter_env () |] in
  let sites = sites.(0) in
  check_pool_invariant "census fractions" (fun () ->
      Rr_census.Assignment.fractions ~sites blocks)

let test_abilene_invariant () =
  match abilene_env () with
  | None -> Alcotest.skip ()
  | Some env ->
    check_pool_invariant "abilene ratios" (fun () ->
        Ratios.intradomain ~pair_cap:100 env);
    check_pool_invariant "abilene greedy" (fun () ->
        List.map
          (fun (p : Augment.pick) -> (p.Augment.u, p.Augment.v, p.Augment.total_after))
          (Augment.greedy ~k:2 env))

(* Fig 11's pair rows run on the pool; the per-candidate means fold on
   the calling domain in pair order. *)
let test_peer_advisor_invariant () =
  let merged, env = Interdomain.shared () in
  check_pool_invariant ~sizes:[ 1; 2; 4 ] "peer advisor" (fun () ->
      Peer_advisor.recommend_all ~pair_cap:60 merged env)

(* Grid-scored cross validation gathers held-out densities without the
   chunked fit, so its scores do not depend on the pool size either. *)
let test_bandwidth_cv_invariant () =
  let rng = Rr_util.Prng.create 41L in
  let events =
    Array.init 1_500 (fun i ->
        let dy, dx = Rr_util.Prng.gaussian2 rng in
        let lat, lon =
          match i mod 3 with
          | 0 -> (30.0, -90.0)
          | 1 -> (45.0, -120.0)
          | _ -> (40.0, -100.0)
        in
        coord (lat +. (5.0 *. dy)) (lon +. (7.5 *. dx)))
  in
  check_pool_invariant "grid-scored bandwidth CV" (fun () ->
      let s =
        Rr_kde.Bandwidth.select ~max_events:1_500 ~scorer:Rr_kde.Bandwidth.Grid
          ~candidates:[| 3.0; 12.0; 40.0; 150.0; 480.0 |] events
      in
      (s.Rr_kde.Bandwidth.best, s.Rr_kde.Bandwidth.scores))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          q map_matches_sequential; q fold_matches_sequential;
          Alcotest.test_case "parallel_for covers every index" `Quick
            test_parallel_for_covers;
          Alcotest.test_case "nested parallelism completes" `Quick
            test_nested_no_deadlock;
          Alcotest.test_case "exceptions propagate" `Quick
            test_exception_propagates;
        ] );
      ( "env",
        [
          Alcotest.test_case "valid RISKROUTE_DOMAINS" `Quick
            test_env_count_valid;
          Alcotest.test_case "unset/blank is silent" `Quick
            test_env_count_empty_silent;
          Alcotest.test_case "invalid values warn and count" `Quick
            test_env_count_invalid;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "total bit-risk" `Quick test_total_bit_risk_invariant;
          Alcotest.test_case "greedy augmentation" `Quick test_greedy_invariant;
          Alcotest.test_case "intradomain ratios" `Quick test_ratios_invariant;
          Alcotest.test_case "outage simulation" `Quick test_outagesim_invariant;
          Alcotest.test_case "census fractions" `Quick test_census_invariant;
          Alcotest.test_case "abilene end-to-end" `Quick test_abilene_invariant;
          Alcotest.test_case "peer advisor" `Quick test_peer_advisor_invariant;
          Alcotest.test_case "grid-scored bandwidth CV" `Quick
            test_bandwidth_cv_invariant;
        ] );
    ]
