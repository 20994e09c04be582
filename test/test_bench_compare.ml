(* The performance tooling behind `bench json` and `riskroute
   bench-compare`: the zero-dependency JSON reader, the repetition
   harness statistics, the BENCH_*.json round trip (including schema-2
   back-compat) and the regression verdict model. *)

module Json = Rr_obs.Json
module Benchfile = Rr_perf.Benchfile
module Harness = Rr_perf.Harness
module Compare = Rr_perf.Compare

(* --- JSON reader --- *)

let test_json_values () =
  match Json.parse {| {"a": [1, -2.5, 1e3], "b": "x\"y", "c": null, "d": true} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    let nums =
      match Option.bind (Json.member "a" j) Json.to_arr with
      | Some l -> List.filter_map Json.to_num l
      | None -> []
    in
    Alcotest.(check (list (float 0.0))) "numbers" [ 1.0; -2.5; 1000.0 ] nums;
    Alcotest.(check (option string)) "escaped string" (Some "x\"y")
      (Option.bind (Json.member "b" j) Json.to_str);
    Alcotest.(check bool) "null member present" true
      (Json.member "c" j = Some Json.Null);
    Alcotest.(check bool) "bool" true
      (Json.member "d" j = Some (Json.Bool true));
    Alcotest.(check (option string)) "missing member" None
      (Option.bind (Json.member "nope" j) Json.to_str)

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" text
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "{} trailing" ]

let test_json_parses_own_exposition () =
  (* The telemetry JSON dump must be readable by the repo's own parser
     (CI validates dumps this way). *)
  Rr_obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Rr_obs.set_enabled false) @@ fun () ->
  let r = Rr_obs.Registry.create () in
  Rr_obs.Counter.add (Rr_obs.Counter.make ~registry:r "a.count") 3;
  List.iter
    (Rr_obs.Histogram.observe (Rr_obs.Histogram.make ~registry:r "b.seconds"))
    [ 0.1; 0.2 ];
  Rr_obs.with_span ~registry:r "op" (fun () -> ());
  match Json.parse (Rr_obs.to_json ~registry:r ()) with
  | Error e -> Alcotest.failf "telemetry dump is not valid JSON: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "counter value survives" (Some 3)
      (Option.bind
         (Option.bind (Json.member "counters" j) (Json.member "a.count"))
         Json.to_int)

(* --- harness statistics --- *)

let test_quantile () =
  Alcotest.(check bool) "empty sample is NaN" true
    (Float.is_nan (Harness.quantile [||] 0.5));
  Alcotest.(check (float 0.0)) "single sample" 7.0
    (Harness.quantile [| 7.0 |] 0.95);
  let s = [| 40.0; 10.0; 30.0; 20.0 |] in
  Alcotest.(check (float 0.0)) "p50 nearest rank" 20.0 (Harness.quantile s 0.5);
  Alcotest.(check (float 0.0)) "p0 is the minimum" 10.0
    (Harness.quantile s 0.0);
  Alcotest.(check (float 0.0)) "p100 is the maximum" 40.0
    (Harness.quantile s 1.0)

let test_measure_smoke () =
  let calls = ref 0 in
  let rows =
    Harness.measure ~warmups:2 ~reps:5
      [
        ("k.first", fun () -> incr calls);
        ("k.second", fun () -> ignore (Array.make 64 0.0));
      ]
  in
  Alcotest.(check int) "warmups plus reps" 7 !calls;
  Alcotest.(check (list string)) "input order kept" [ "k.first"; "k.second" ]
    (List.map (fun r -> r.Benchfile.name) rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "reps recorded" 5 r.Benchfile.reps;
      Alcotest.(check bool) "ordered statistics" true
        (r.Benchfile.min_ns <= r.Benchfile.p50_ns
        && r.Benchfile.p50_ns <= r.Benchfile.p95_ns
        && r.Benchfile.p95_ns <= r.Benchfile.max_ns);
      Alcotest.(check bool) "non-negative timings" true
        (r.Benchfile.min_ns >= 0.0))
    rows

let test_measure_counts_allocation () =
  match
    Harness.measure ~warmups:0 ~reps:3
      [ ("k.alloc", fun () -> ignore (Sys.opaque_identity (List.init 100 Fun.id))) ]
  with
  | [ r ] ->
    Alcotest.(check bool) "allocating kernel reports minor words" true
      (r.Benchfile.gc_minor_words > 0.0)
  | _ -> Alcotest.fail "one row expected"

(* [bench json]'s path: the GC-pause consumer is started before the
   kernels run and records with telemetry off, so the meta pause fields
   are real without --series. *)
let test_measure_with_pauses () =
  Alcotest.(check bool) "telemetry is off" false (Rr_obs.enabled ());
  let _, pauses =
    Harness.measure_with_pauses ~warmups:0 ~reps:3
      [
        ( "k.churn",
          fun () ->
            for _ = 1 to 20 do
              ignore (Sys.opaque_identity (Array.make 100_000 None))
            done;
            Gc.minor () );
      ]
  in
  if not (Rr_obs.Rte.started ()) then begin
    (* Either the harness never started the consumer, or the runtime
       refuses a Runtime_events ring here: only the latter is a skip. *)
    if Rr_obs.Rte.start () then
      Alcotest.fail "measure_with_pauses did not start the GC-pause consumer"
    else Alcotest.skip ()
  end
  else
    Alcotest.(check bool) "minor pause quantiles recorded" true
      (pauses.Harness.minor_p50_ns > 0.0
      && pauses.Harness.minor_p50_ns <= pauses.Harness.minor_p99_ns)

(* --- bench file format --- *)

let meta =
  {
    Benchfile.schema = Benchfile.schema;
    domains = 4;
    git_rev = "abc1234";
    hostname = "testhost";
    ocaml_version = "5.1.1";
    word_size = 64;
    riskroute_domains = "4";
    reps = 10;
    warmups = 3;
    cache_hits = 7;
    cache_misses = 2;
    tree_cache_cap = 4096;
    topology_pops = "1000,10000";
    gc_minor_pause_p50_ns = 1200.0;
    gc_minor_pause_p99_ns = 45000.0;
    gc_major_pause_p50_ns = 250000.0;
    gc_major_pause_p99_ns = 1900000.0;
  }

let result name p50 p95 =
  {
    Benchfile.name;
    reps = 10;
    mean_ns = p50;
    p50_ns = p50;
    p95_ns = p95;
    min_ns = p50;
    max_ns = p95;
    gc_minor_words = 128.5;
    gc_major_words = 0.0;
  }

let test_benchfile_roundtrip () =
  let f =
    {
      Benchfile.meta;
      results = [ result "dijkstra.flat" 1500.25 1800.5; result "kde.fit" 92.0 95.0 ];
    }
  in
  match Benchfile.of_json_string (Benchfile.to_json_string f) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok f' ->
    Alcotest.(check bool) "meta survives" true (f'.Benchfile.meta = meta);
    Alcotest.(check bool) "results survive" true
      (f'.Benchfile.results = f.Benchfile.results);
    (match Benchfile.find f' "kde.fit" with
    | Some r ->
      Alcotest.(check (float 0.0)) "find returns the row" 92.0 r.Benchfile.p50_ns
    | None -> Alcotest.fail "find missed an existing kernel");
    Alcotest.(check bool) "find misses absent kernels" true
      (Benchfile.find f' "nope" = None)

let test_benchfile_schema2_compat () =
  let text =
    "{\"meta\": {\"schema\": 2, \"domains\": 2, \"git_rev\": \"old\", \
     \"hostname\": \"h\"},\n\
     \"results\": [{\"name\": \"augment.greedy\", \"ns_per_run\": 2500.0}]}"
  in
  match Benchfile.of_json_string text with
  | Error e -> Alcotest.failf "schema-2 parse failed: %s" e
  | Ok f -> (
    Alcotest.(check int) "schema read" 2 f.Benchfile.meta.Benchfile.schema;
    match Benchfile.find f "augment.greedy" with
    | Some r ->
      Alcotest.(check (float 0.0)) "estimate fills p50" 2500.0
        r.Benchfile.p50_ns;
      Alcotest.(check (float 0.0)) "estimate fills p95" 2500.0
        r.Benchfile.p95_ns;
      Alcotest.(check (float 0.0)) "gc defaults to zero" 0.0
        r.Benchfile.gc_minor_words
    | None -> Alcotest.fail "schema-2 row missing")

let test_benchfile_schema5_compat () =
  (* A schema-5 meta predates the GC pause quantiles: the reader must
     default them to zero rather than reject the file. *)
  let text =
    "{\"meta\": {\"schema\": 5, \"domains\": 2, \"git_rev\": \"old\", \
     \"hostname\": \"h\", \"ocaml_version\": \"5.1.1\", \"word_size\": 64, \
     \"riskroute_domains\": \"\", \"reps\": 10, \"warmups\": 3, \
     \"cache_hits\": 1, \"cache_misses\": 1, \"tree_cache_cap\": 4096, \
     \"topology_pops\": \"1000\"},\n\
     \"results\": [{\"name\": \"k\", \"reps\": 10, \"mean_ns\": 5.0, \
     \"p50_ns\": 5.0, \"p95_ns\": 6.0, \"min_ns\": 4.0, \"max_ns\": 7.0, \
     \"gc_minor_words\": 0.0, \"gc_major_words\": 0.0}]}"
  in
  match Benchfile.of_json_string text with
  | Error e -> Alcotest.failf "schema-5 parse failed: %s" e
  | Ok f ->
    let m = f.Benchfile.meta in
    List.iter
      (fun (what, v) ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s defaults to 0" what)
          0.0 v)
      [
        ("minor p50", m.Benchfile.gc_minor_pause_p50_ns);
        ("minor p99", m.Benchfile.gc_minor_pause_p99_ns);
        ("major p50", m.Benchfile.gc_major_pause_p50_ns);
        ("major p99", m.Benchfile.gc_major_pause_p99_ns);
      ]

let test_benchfile_rejects_missing_results () =
  match Benchfile.of_json_string "{\"meta\": {\"schema\": 3}}" with
  | Ok _ -> Alcotest.fail "accepted a file with no results array"
  | Error _ -> ()

(* --- regression verdicts --- *)

let file results = { Benchfile.meta; results }

let verdict_of rows name =
  match List.find_opt (fun r -> r.Compare.name = name) rows with
  | Some r -> r.Compare.verdict
  | None -> Alcotest.failf "no row for %s" name

let test_compare_self_is_clean () =
  let f = file [ result "a" 1000.0 1100.0; result "b" 50.0 60.0 ] in
  let rows = Compare.run f f in
  Alcotest.(check int) "one row per kernel" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "self comparison is Within" true
        (r.Compare.verdict = Compare.Within))
    rows;
  Alcotest.(check bool) "no regression" false (Compare.any_regression rows)

let test_compare_flags_slowdown () =
  (* Stable kernel (p95 = p50, so tau = tau_base = 0.25): 2x is well
     past the band; 1.2x is inside it. *)
  let baseline = file [ result "slow" 1000.0 1000.0; result "ok" 1000.0 1000.0 ] in
  let current = file [ result "slow" 2000.0 2000.0; result "ok" 1200.0 1200.0 ] in
  let rows = Compare.run baseline current in
  Alcotest.(check bool) "2x slowdown regresses" true
    (verdict_of rows "slow" = Compare.Regressed);
  Alcotest.(check bool) "1.2x stays within a 0.25 band" true
    (verdict_of rows "ok" = Compare.Within);
  Alcotest.(check bool) "gate trips" true (Compare.any_regression rows);
  (match rows with
  | first :: _ ->
    Alcotest.(check string) "regressions sort first" "slow" first.Compare.name
  | [] -> Alcotest.fail "no rows");
  (* The same slowdown under a generous threshold passes. *)
  let relaxed = Compare.run ~tau_base:1.5 baseline current in
  Alcotest.(check bool) "generous tau_base absorbs the slowdown" false
    (Compare.any_regression relaxed)

let test_compare_noise_widens_band () =
  (* A jittery baseline (p95 = 1.4 * p50) earns tau = 0.25 + 0.4 = 0.65,
     so a 1.5x current p50 is still within; a stable baseline at the
     same ratio regresses. *)
  let baseline = file [ result "jittery" 1000.0 1400.0; result "stable" 1000.0 1000.0 ] in
  let current = file [ result "jittery" 1500.0 1500.0; result "stable" 1500.0 1500.0 ] in
  let rows = Compare.run baseline current in
  Alcotest.(check bool) "jitter widens the band" true
    (verdict_of rows "jittery" = Compare.Within);
  Alcotest.(check bool) "stable kernel still regresses" true
    (verdict_of rows "stable" = Compare.Regressed)

let test_compare_improvement_and_churn () =
  let baseline = file [ result "fast" 1000.0 1000.0; result "gone" 10.0 10.0 ] in
  let current = file [ result "fast" 400.0 400.0; result "new" 10.0 10.0 ] in
  let rows = Compare.run baseline current in
  Alcotest.(check bool) "speedup is Improved" true
    (verdict_of rows "fast" = Compare.Improved);
  Alcotest.(check bool) "removed kernel reported" true
    (verdict_of rows "gone" = Compare.Removed);
  Alcotest.(check bool) "added kernel reported" true
    (verdict_of rows "new" = Compare.Added);
  Alcotest.(check bool) "churn alone never trips the gate" false
    (Compare.any_regression rows)

let test_meta_warnings () =
  Alcotest.(check (list string)) "identical metas are silent" []
    (Compare.meta_warnings meta meta);
  let cur =
    { meta with Benchfile.hostname = "elsewhere"; ocaml_version = "5.2.0" }
  in
  Alcotest.(check (list string))
    "differing facts warn, in audit order, with both values"
    [
      "hostname differs (baseline testhost, current elsewhere); timings \
       may not be comparable";
      "OCaml version differs (baseline 5.1.1, current 5.2.0); timings may \
       not be comparable";
    ]
    (Compare.meta_warnings meta cur);
  (* Fields an older schema never recorded (zero / empty on one side)
     must not warn against every new run. *)
  let old =
    { meta with Benchfile.tree_cache_cap = 0; topology_pops = "" }
  in
  Alcotest.(check (list string)) "unrecorded old-schema fields stay silent"
    []
    (Compare.meta_warnings old meta);
  let resized = { meta with Benchfile.tree_cache_cap = 64 } in
  Alcotest.(check (list string)) "recorded capacity change does warn"
    [
      "tree cache capacity differs (baseline 4096, current 64); timings \
       may not be comparable";
    ]
    (Compare.meta_warnings meta resized)

let test_compare_table_renders () =
  let baseline = file [ result "a" 1000.0 1000.0 ] in
  let current = file [ result "a" 3000.0 3000.0 ] in
  let rows = Compare.run baseline current in
  let text = Format.asprintf "%a" Compare.pp_table rows in
  let contains needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "table flags the regression" true
    (contains "REGRESSED");
  Alcotest.(check bool) "table summarises the count" true
    (contains "1 kernel(s) regressed")

(* --- dashboard sparklines --- *)

module Dashboard = Rr_perf.Dashboard

let page_contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* A series dump hand-built around the degenerate shapes: the sparkline
   scaler divides by [n - 1] (x) and by [vmax - vmin] (y), so a
   single-sample ring and a constant metric are the regression cases —
   either must render finite coordinates, never "nan"/"inf" attribute
   soup. *)
let series_doc samples =
  Printf.sprintf
    "{\"schema\": 1, \"period_seconds\": 1, \"capacity\": 8, \"recorded\": \
     %d, \"retained\": %d, \"samples\": [%s]}"
    (List.length samples) (List.length samples)
    (String.concat ", " samples)

let render_series_exn samples =
  match Dashboard.render ~source:"test.json" (series_doc samples) with
  | Ok html -> html
  | Error e -> Alcotest.failf "dashboard render failed: %s" e

let check_finite_svg label html =
  let lowered = String.lowercase_ascii html in
  List.iter
    (fun tok ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: no %S in the page" label tok)
        false (page_contains tok lowered))
    [ "nan"; "infinity" ]

let test_dashboard_single_sample () =
  let html =
    render_series_exn
      [
        "{\"seq\": 0, \"time\": 10.0, \"counters\": {\"demo.requests\": 5}, \
         \"gauges\": {\"demo.level\": 3}, \"gc\": {\"minor_words\": 10, \
         \"major_words\": 0, \"minor_collections\": 1, \
         \"major_collections\": 0, \"heap_words\": 1000}}";
      ]
  in
  check_finite_svg "single sample" html;
  (* One tick cannot draw a line; the point marker stands in. *)
  Alcotest.(check bool) "renders the single-point marker" true
    (page_contains "circle class=\"pt\"" html);
  Alcotest.(check bool) "names the metric" true
    (page_contains "demo.requests" html)

let test_dashboard_constant_and_gappy_series () =
  (* Three ticks: a constant counter (zero vertical span), and a stat
     present only in the middle tick (single-point run inside gaps). *)
  let tick seq time stats =
    Printf.sprintf
      "{\"seq\": %d, \"time\": %.1f, \"counters\": {\"demo.requests\": 5}, \
       \"gc\": {\"minor_words\": 10, \"major_words\": 0, \
       \"minor_collections\": 1, \"major_collections\": 0, \"heap_words\": \
       1000}%s}"
      seq time stats
  in
  let html =
    render_series_exn
      [
        tick 0 10.0 "";
        tick 1 11.0 ", \"stats\": {\"probe.level\": 42}";
        tick 2 12.0 "";
      ]
  in
  check_finite_svg "constant series" html;
  (* The constant counter still draws its (flat, centred) line... *)
  Alcotest.(check bool) "constant series draws a line" true
    (page_contains "path class=\"line\"" html);
  (* ...and the lone mid-gap observation degrades to a point marker. *)
  Alcotest.(check bool) "gappy stat draws a point" true
    (page_contains "circle class=\"pt\"" html);
  Alcotest.(check bool) "names the gappy stat" true
    (page_contains "probe.level" html)

let () =
  Alcotest.run "bench_compare"
    [
      ( "json",
        [
          Alcotest.test_case "values and escapes" `Quick test_json_values;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "parses telemetry dumps" `Quick
            test_json_parses_own_exposition;
        ] );
      ( "harness",
        [
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "measure smoke" `Quick test_measure_smoke;
          Alcotest.test_case "measure with GC pauses" `Quick
            test_measure_with_pauses;
          Alcotest.test_case "measure counts allocation" `Quick
            test_measure_counts_allocation;
        ] );
      ( "benchfile",
        [
          Alcotest.test_case "roundtrip" `Quick test_benchfile_roundtrip;
          Alcotest.test_case "schema-2 compat" `Quick
            test_benchfile_schema2_compat;
          Alcotest.test_case "schema-5 compat" `Quick
            test_benchfile_schema5_compat;
          Alcotest.test_case "missing results rejected" `Quick
            test_benchfile_rejects_missing_results;
        ] );
      ( "compare",
        [
          Alcotest.test_case "self comparison clean" `Quick
            test_compare_self_is_clean;
          Alcotest.test_case "slowdown flagged" `Quick
            test_compare_flags_slowdown;
          Alcotest.test_case "noisy baseline widens band" `Quick
            test_compare_noise_widens_band;
          Alcotest.test_case "improvement and churn" `Quick
            test_compare_improvement_and_churn;
          Alcotest.test_case "meta comparability warnings" `Quick
            test_meta_warnings;
          Alcotest.test_case "table renders" `Quick test_compare_table_renders;
        ] );
      ( "dashboard",
        [
          Alcotest.test_case "single-sample ring renders finite" `Quick
            test_dashboard_single_sample;
          Alcotest.test_case "constant and gappy series render finite" `Quick
            test_dashboard_constant_and_gappy_series;
        ] );
    ]
