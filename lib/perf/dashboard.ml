(* One self-contained HTML page per JSON artifact: series dumps get
   stat tiles + a sparkline per metric, bench files get metadata tiles
   + a horizontal p50 bar chart. No external assets — the page must
   open from a CI artifact tarball or an email attachment. *)

module Json = Rr_obs.Json

let html_escape s =
  let b = Buffer.create (String.length s + 16) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Thousands grouping for the digits of a plain integer string. *)
let commas s =
  let n = String.length s in
  let b = Buffer.create (n + n / 3) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b c)
    s;
  Buffer.contents b

(* Auto-compact figures: 1,284 / 12.9K / 4.2M — stat-tile style. *)
let compact v =
  if Float.is_nan v then "-"
  else
    let a = Float.abs v in
    if a >= 1e9 then Printf.sprintf "%.1fG" (v /. 1e9)
    else if a >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
    else if a >= 1e4 then Printf.sprintf "%.1fK" (v /. 1e3)
    else if Float.is_integer v then commas (Printf.sprintf "%.0f" v)
    else if a >= 1.0 then Printf.sprintf "%.2f" v
    else if a = 0.0 then "0"
    else Printf.sprintf "%.3g" v

let fmt_ns v =
  if Float.is_nan v then "-"
  else if v >= 1e9 then Printf.sprintf "%.2f s" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2f ms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2f us" (v /. 1e3)
  else Printf.sprintf "%.0f ns" v

(* Histogram windows record seconds; everything else is unitless. *)
let fmt_seconds v = fmt_ns (v *. 1e9)

(* ------------------------------------------------------------------ *)
(* Sparkline: a 560x80 inline SVG — 2px round-capped line, 10%-opacity
   area wash, end dot with a 2px surface ring, plus hidden crosshair +
   hover dot driven by the shared script. [None] values (a histogram
   window with no observations) break the line into segments. *)

let spark_w = 560.
let spark_h = 80.
let pad_l = 8.
let pad_r = 14.
let pad_t = 10.
let pad_b = 12.

let render_spark b ~title ~labels ~values ~fmt =
  let n = Array.length values in
  if n = 0 then ()
  else begin
    let finite =
      Array.to_list values
      |> List.filter_map (fun v -> v)
      |> List.filter (fun v -> Float.is_finite v)
    in
    let vmin = List.fold_left Float.min infinity finite in
    let vmax = List.fold_left Float.max neg_infinity finite in
    let x i =
      if n = 1 then (pad_l +. (spark_w -. pad_l -. pad_r) /. 2.)
      else
        pad_l
        +. float_of_int i *. (spark_w -. pad_l -. pad_r) /. float_of_int (n - 1)
    in
    let y v =
      let span = vmax -. vmin in
      if span <= 0.0 then (pad_t +. (spark_h -. pad_t -. pad_b) /. 2.)
      else
        spark_h -. pad_b
        -. ((v -. vmin) /. span *. (spark_h -. pad_t -. pad_b))
    in
    (* Contiguous runs of observed points; the line and its wash are
       drawn per run so gaps stay visibly empty. *)
    let runs = ref [] and cur = ref [] in
    Array.iteri
      (fun i v ->
        match v with
        | Some v when Float.is_finite v -> cur := (x i, y v) :: !cur
        | _ ->
          if !cur <> [] then runs := List.rev !cur :: !runs;
          cur := [])
      values;
    if !cur <> [] then runs := List.rev !cur :: !runs;
    let runs = List.rev !runs in
    let baseline = spark_h -. pad_b in
    Buffer.add_string b
      (Printf.sprintf
         "<figure class=\"card\"><figcaption>%s</figcaption><svg \
          class=\"spark\" viewBox=\"0 0 %.0f %.0f\" \
          preserveAspectRatio=\"none\" data-hx=\"[%s]\" data-hy=\"[%s]\" \
          data-lx=\"[%s]\" data-lv=\"[%s]\">"
         (html_escape title) spark_w spark_h
         (String.concat ","
            (List.init n (fun i -> Printf.sprintf "%.1f" (x i))))
         (String.concat ","
            (List.init n (fun i ->
                 match values.(i) with
                 | Some v when Float.is_finite v -> Printf.sprintf "%.1f" (y v)
                 | _ -> "null")))
         (html_escape (String.concat "," (List.map Json.quote labels)))
         (html_escape
            (String.concat ","
               (List.init n (fun i ->
                    Json.quote
                      (match values.(i) with
                      | Some v -> fmt v
                      | None -> "-"))))));
    (* Recessive hairline baseline. *)
    Buffer.add_string b
      (Printf.sprintf
         "<line class=\"axis\" x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" \
          y2=\"%.1f\"/>"
         pad_l baseline (spark_w -. pad_r) baseline);
    List.iter
      (fun run ->
        match run with
        | [] -> ()
        | [ (px, py) ] ->
          Buffer.add_string b
            (Printf.sprintf
               "<circle class=\"pt\" cx=\"%.1f\" cy=\"%.1f\" r=\"4\"/>" px py)
        | (x0, _) :: _ ->
          let path =
            String.concat " "
              (List.mapi
                 (fun i (px, py) ->
                   Printf.sprintf "%s%.1f %.1f" (if i = 0 then "M" else "L")
                     px py)
                 run)
          in
          let lx, _ = List.nth run (List.length run - 1) in
          Buffer.add_string b
            (Printf.sprintf
               "<path class=\"wash\" d=\"%s L%.1f %.1f L%.1f %.1f Z\"/>" path
               lx baseline x0 baseline);
          Buffer.add_string b
            (Printf.sprintf "<path class=\"line\" d=\"%s\"/>" path))
      runs;
    (* End dot on the most recent observation. *)
    let last = ref None in
    Array.iteri
      (fun i v ->
        match v with
        | Some v when Float.is_finite v -> last := Some (x i, y v)
        | _ -> ())
      values;
    (match !last with
    | Some (px, py) ->
      Buffer.add_string b
        (Printf.sprintf
           "<circle class=\"pt\" cx=\"%.1f\" cy=\"%.1f\" r=\"4\"/>" px py)
    | None ->
      Buffer.add_string b
        (Printf.sprintf
           "<text class=\"empty\" x=\"%.1f\" y=\"%.1f\">no \
            observations</text>"
           (spark_w /. 2.) (spark_h /. 2.)));
    Buffer.add_string b
      (Printf.sprintf
         "<line class=\"cross\" style=\"display:none\" x1=\"0\" \
          y1=\"%.1f\" x2=\"0\" y2=\"%.1f\"/><circle class=\"hdot\" \
          style=\"display:none\" r=\"4\"/>"
         pad_t baseline);
    Buffer.add_string b "</svg></figure>\n"
  end

(* ------------------------------------------------------------------ *)
(* Page chrome: palette tokens as CSS custom properties, light theme
   default, dark theme via media query and explicit [data-theme]
   scopes. Series marks wear the accent; text wears text tokens. *)

let css =
  {|:root,[data-theme="light"]{--surface:#fcfcfb;--ink:#0b0b0b;--ink2:#52514e;--muted:#898781;--grid:#e1e0d9;--base:#c3c2b7;--accent:#2a78d6;--wash:rgba(42,120,214,.10)}
@media (prefers-color-scheme: dark){:root{--surface:#1a1a19;--ink:#ffffff;--ink2:#c3c2b7;--muted:#898781;--grid:#2c2c2a;--base:#383835;--accent:#3987e5;--wash:rgba(57,135,229,.12)}}
[data-theme="dark"]{--surface:#1a1a19;--ink:#ffffff;--ink2:#c3c2b7;--muted:#898781;--grid:#2c2c2a;--base:#383835;--accent:#3987e5;--wash:rgba(57,135,229,.12)}
*{box-sizing:border-box}
body{margin:0;padding:24px;background:var(--surface);color:var(--ink);font:14px/1.45 system-ui,-apple-system,"Segoe UI",Roboto,sans-serif}
h1{font-size:18px;font-weight:600;margin:0 0 2px}
.sub{color:var(--ink2);margin:0 0 20px;font-size:13px}
.hero{margin:0 0 18px}
.hero .v{font-size:48px;font-weight:600;line-height:1.1}
.hero .l{color:var(--ink2);font-size:13px}
.tiles{display:flex;flex-wrap:wrap;gap:12px;margin:0 0 22px}
.tile{border:1px solid var(--grid);border-radius:8px;padding:10px 14px;min-width:130px}
.tile .l{color:var(--ink2);font-size:12px}
.tile .v{font-size:20px;font-weight:600;margin-top:2px}
.grid{display:grid;grid-template-columns:repeat(auto-fill,minmax(360px,1fr));gap:14px}
.card{border:1px solid var(--grid);border-radius:8px;padding:12px 14px;margin:0}
.card figcaption{color:var(--ink2);font-size:12px;margin-bottom:6px}
svg.spark{display:block;width:100%;height:auto}
svg .line{fill:none;stroke:var(--accent);stroke-width:2;stroke-linecap:round;stroke-linejoin:round}
svg .wash{fill:var(--wash);stroke:none}
svg .pt{fill:var(--accent);stroke:var(--surface);stroke-width:2}
svg .axis{stroke:var(--base);stroke-width:1}
svg .gl{stroke:var(--grid);stroke-width:1}
svg .cross{stroke:var(--base);stroke-width:1}
svg .hdot{fill:var(--accent);stroke:var(--surface);stroke-width:2}
svg .empty{fill:var(--muted);font-size:12px;text-anchor:middle}
svg.bars{display:block;width:100%;height:auto}
svg.bars .bar path{fill:var(--accent)}
svg.bars .name{fill:var(--ink2);font-size:12px}
svg.bars .val{fill:var(--ink);font-size:12px;font-variant-numeric:tabular-nums}
details{margin:24px 0 0}
summary{cursor:pointer;color:var(--ink2);font-size:13px}
table{border-collapse:collapse;margin-top:10px;font-size:13px}
th,td{text-align:left;padding:4px 14px 4px 0;border-bottom:1px solid var(--grid)}
td.n,th.n{text-align:right;font-variant-numeric:tabular-nums}
th{color:var(--ink2);font-weight:500}
.tip{position:absolute;pointer-events:none;background:var(--ink);color:var(--surface);border-radius:6px;padding:4px 9px;font-size:12px;z-index:9}
.tip span{opacity:.75}
.foot{margin-top:26px;color:var(--muted);font-size:12px}
|}

let script =
  {|(function(){
var tip=document.createElement('div');tip.className='tip';tip.style.display='none';
document.body.appendChild(tip);
function show(x,y,html){tip.innerHTML=html;tip.style.display='block';tip.style.left=(x+14)+'px';tip.style.top=(y+14)+'px';}
function hide(){tip.style.display='none';}
document.querySelectorAll('svg.spark').forEach(function(svg){
  var hx=JSON.parse(svg.dataset.hx),hy=JSON.parse(svg.dataset.hy);
  var lx=JSON.parse(svg.dataset.lx),lv=JSON.parse(svg.dataset.lv);
  var cross=svg.querySelector('.cross'),dot=svg.querySelector('.hdot');
  svg.addEventListener('mousemove',function(e){
    var r=svg.getBoundingClientRect();
    var fx=(e.clientX-r.left)/r.width*560;
    var best=0,bd=1/0;
    for(var i=0;i<hx.length;i++){var d=Math.abs(hx[i]-fx);if(d<bd){bd=d;best=i;}}
    cross.setAttribute('x1',hx[best]);cross.setAttribute('x2',hx[best]);cross.style.display='';
    if(hy[best]==null){dot.style.display='none';}
    else{dot.setAttribute('cx',hx[best]);dot.setAttribute('cy',hy[best]);dot.style.display='';}
    show(e.pageX,e.pageY,'<b>'+lv[best]+'</b> <span>'+lx[best]+'</span>');
  });
  svg.addEventListener('mouseleave',function(){cross.style.display='none';dot.style.display='none';hide();});
});
document.querySelectorAll('[data-tip]').forEach(function(el){
  el.addEventListener('mousemove',function(e){show(e.pageX,e.pageY,el.dataset.tip);});
  el.addEventListener('mouseleave',hide);
});
})();|}

let page ~title ~subtitle ~body =
  Printf.sprintf
    "<!DOCTYPE html>\n\
     <html lang=\"en\">\n\
     <head>\n\
     <meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, \
     initial-scale=1\">\n\
     <title>%s</title>\n\
     <style>%s</style>\n\
     </head>\n\
     <body>\n\
     <h1>%s</h1>\n\
     <p class=\"sub\">%s</p>\n\
     %s\n\
     <p class=\"foot\">riskroute dashboard &middot; self-contained; no \
     external assets</p>\n\
     <script>%s</script>\n\
     </body>\n\
     </html>\n"
    (html_escape title) css (html_escape title) (html_escape subtitle) body
    script

let tile b label value =
  Buffer.add_string b
    (Printf.sprintf
       "<div class=\"tile\"><div class=\"l\">%s</div><div \
        class=\"v\">%s</div></div>"
       (html_escape label) (html_escape value))

let hero b label value =
  Buffer.add_string b
    (Printf.sprintf
       "<div class=\"hero\"><div class=\"v\">%s</div><div \
        class=\"l\">%s</div></div>"
       (html_escape value) (html_escape label))

(* ------------------------------------------------------------------ *)
(* Series flavour. *)

type tick = {
  t_seq : int;
  t_time : float;
  t_counters : (string * float) list;
  t_gauges : (string * float) list;
  t_hists : (string * (float * float)) list; (* count, p50 *)
  t_gc : float * float * float * float * float;
      (* minor_words, major_words, minor_collections, major_collections,
         heap_words *)
  t_stats : (string * float) list;
}

let num_pairs j key =
  match Json.member key j with
  | Some (Json.Obj l) ->
    List.filter_map
      (fun (n, v) -> Option.map (fun f -> (n, f)) (Json.to_num v))
      l
  | _ -> []

let numf ?(default = 0.0) j key =
  match Option.bind (Json.member key j) Json.to_num with
  | Some v -> v
  | None -> default

let parse_tick j =
  let gc =
    match Json.member "gc" j with
    | Some g ->
      ( numf g "minor_words",
        numf g "major_words",
        numf g "minor_collections",
        numf g "major_collections",
        numf g "heap_words" )
    | None -> (0., 0., 0., 0., 0.)
  in
  let hists =
    match Json.member "histograms" j with
    | Some (Json.Obj l) ->
      List.filter_map
        (fun (n, h) ->
          match h with
          | Json.Obj _ -> Some (n, (numf h "count", numf h "p50"))
          | _ -> None)
        l
    | _ -> []
  in
  {
    t_seq = int_of_float (numf j "seq");
    t_time = numf j "time";
    t_counters = num_pairs j "counters";
    t_gauges = num_pairs j "gauges";
    t_hists = hists;
    t_gc = gc;
    t_stats = num_pairs j "stats";
  }

(* Union of names across ticks, sorted. *)
let names_of project ticks =
  List.sort_uniq compare
    (List.concat_map (fun t -> List.map fst (project t)) ticks)

let series_of ~absent project name ticks =
  Array.of_list
    (List.map
       (fun t ->
         match List.assoc_opt name (project t) with
         | Some v -> Some v
         | None -> absent)
       ticks)

let render_series ~source j =
  let ticks =
    match Json.member "samples" j with
    | Some (Json.Arr l) -> List.map parse_tick l
    | _ -> []
  in
  let b = Buffer.create 65536 in
  let recorded = numf j "recorded" in
  hero b "telemetry samples recorded" (compact recorded);
  Buffer.add_string b "<div class=\"tiles\">";
  tile b "Sample period" (Printf.sprintf "%g s" (numf j "period_seconds"));
  tile b "Ring capacity" (compact (numf j "capacity"));
  tile b "Retained" (compact (numf j "retained"));
  (match ticks with
  | first :: _ :: _ ->
    let last = List.nth ticks (List.length ticks - 1) in
    tile b "Time span"
      (Printf.sprintf "%.1f s" (last.t_time -. first.t_time));
    let _, _, _, _, heap = last.t_gc in
    tile b "Heap words (last)" (compact heap);
    let total f =
      List.fold_left (fun acc t -> acc +. f t.t_gc) 0.0 ticks
    in
    tile b "Minor collections"
      (compact (total (fun (_, _, mc, _, _) -> mc)));
    tile b "Major collections"
      (compact (total (fun (_, _, _, jc, _) -> jc)))
  | _ -> ());
  Buffer.add_string b "</div>\n<div class=\"grid\">\n";
  (if ticks = [] then
     Buffer.add_string b
       "<p class=\"sub\">The ring held no samples — enable the sampler \
        with --series or RISKROUTE_SERIES and let it run for at least \
        one period.</p>"
   else
     let labels =
       let t0 = (List.hd ticks).t_time in
       List.map
         (fun t ->
           Printf.sprintf "+%.1fs (#%d)" (t.t_time -. t0) t.t_seq)
         ticks
     in
     let chart title values fmt = render_spark b ~title ~labels ~values ~fmt in
     let gc_chart title f =
       chart title (Array.of_list (List.map (fun t -> Some (f t.t_gc)) ticks))
     in
     gc_chart "GC minor words / tick" (fun (mw, _, _, _, _) -> mw) compact;
     gc_chart "GC major words / tick" (fun (_, jw, _, _, _) -> jw) compact;
     gc_chart "GC minor collections / tick"
       (fun (_, _, mc, _, _) -> mc)
       compact;
     gc_chart "GC major collections / tick"
       (fun (_, _, _, jc, _) -> jc)
       compact;
     gc_chart "GC heap words" (fun (_, _, _, _, hw) -> hw) compact;
     List.iter
       (fun n ->
         chart (n ^ " / tick")
           (series_of ~absent:(Some 0.0) (fun t -> t.t_counters) n ticks)
           compact)
       (names_of (fun t -> t.t_counters) ticks);
     List.iter
       (fun n ->
         chart n
           (series_of ~absent:(Some 0.0) (fun t -> t.t_gauges) n ticks)
           compact)
       (names_of (fun t -> t.t_gauges) ticks);
     List.iter
       (fun n ->
         chart (n ^ " p50 / window")
           (Array.of_list
              (List.map
                 (fun t ->
                   Option.map (fun (_, p50) -> p50)
                     (List.assoc_opt n t.t_hists))
                 ticks))
           fmt_seconds)
       (names_of (fun t -> t.t_hists) ticks);
     List.iter
       (fun n ->
         chart n
           (series_of ~absent:None (fun t -> t.t_stats) n ticks)
           compact)
       (names_of (fun t -> t.t_stats) ticks));
  Buffer.add_string b "</div>\n";
  (* Table view: the underlying numbers, nothing gated on hover. *)
  Buffer.add_string b
    "<details><summary>Table view</summary><table><tr><th \
     class=\"n\">seq</th><th class=\"n\">t (s)</th><th class=\"n\">minor \
     words</th><th class=\"n\">major words</th><th class=\"n\">minor \
     coll</th><th class=\"n\">major coll</th><th class=\"n\">heap \
     words</th><th>nonzero counters</th></tr>";
  let t0 = match ticks with t :: _ -> t.t_time | [] -> 0.0 in
  List.iter
    (fun t ->
      let mw, jw, mc, jc, hw = t.t_gc in
      Buffer.add_string b
        (Printf.sprintf
           "<tr><td class=\"n\">%d</td><td class=\"n\">%.1f</td><td \
            class=\"n\">%s</td><td class=\"n\">%s</td><td \
            class=\"n\">%s</td><td class=\"n\">%s</td><td \
            class=\"n\">%s</td><td>%s</td></tr>"
           t.t_seq (t.t_time -. t0) (compact mw) (compact jw) (compact mc)
           (compact jc) (compact hw)
           (html_escape
              (String.concat "; "
                 (List.map
                    (fun (n, v) -> Printf.sprintf "%s +%s" n (compact v))
                    t.t_counters)))))
    ticks;
  Buffer.add_string b "</table></details>";
  Ok
    (page
       ~title:(Printf.sprintf "RiskRoute telemetry series — %s" source)
       ~subtitle:
         (Printf.sprintf
            "time-series sampler ring · one sparkline per metric · \
             window deltas unless marked absolute (%s)"
            source)
       ~body:(Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Bench flavour: magnitude comparison over kernels — horizontal bars,
   one measure, p50 labelled at every tip (so no gridlines). *)

let bar_row_h = 46.
let bar_left = 16.
let bar_label_reserve = 96.
let bars_w = 720.

let render_bench ~source (f : Benchfile.file) =
  let m = f.Benchfile.meta in
  let results =
    List.sort
      (fun a b -> compare b.Benchfile.p50_ns a.Benchfile.p50_ns)
      f.Benchfile.results
  in
  let b = Buffer.create 65536 in
  hero b "kernels benchmarked" (compact (float_of_int (List.length results)));
  Buffer.add_string b "<div class=\"tiles\">";
  tile b "Pool size" (string_of_int m.Benchfile.domains);
  tile b "Repetitions"
    (Printf.sprintf "%d + %d warmup" m.Benchfile.reps m.Benchfile.warmups);
  if m.Benchfile.ocaml_version <> "" then
    tile b "OCaml" m.Benchfile.ocaml_version;
  if m.Benchfile.hostname <> "" then tile b "Host" m.Benchfile.hostname;
  if m.Benchfile.git_rev <> "" then tile b "Git" m.Benchfile.git_rev;
  let ch = m.Benchfile.cache_hits and cm = m.Benchfile.cache_misses in
  if ch + cm > 0 then
    tile b "Cache hit rate"
      (Printf.sprintf "%.0f%%"
         (100.0 *. float_of_int ch /. float_of_int (ch + cm)));
  if m.Benchfile.gc_minor_pause_p99_ns > 0.0 then
    tile b "Minor GC pause p99" (fmt_ns m.Benchfile.gc_minor_pause_p99_ns);
  if m.Benchfile.gc_major_pause_p99_ns > 0.0 then
    tile b "Major GC pause p99" (fmt_ns m.Benchfile.gc_major_pause_p99_ns);
  Buffer.add_string b "</div>\n";
  let n = List.length results in
  if n > 0 then begin
    let vmax =
      List.fold_left
        (fun acc r -> Float.max acc r.Benchfile.p50_ns)
        0.0 results
    in
    let plot_w = bars_w -. bar_left -. bar_label_reserve in
    let h = (float_of_int n *. bar_row_h) +. 18. in
    Buffer.add_string b
      (Printf.sprintf
         "<figure class=\"card\"><figcaption>p50 wall time per kernel \
          (%d repetitions)</figcaption><svg class=\"bars\" viewBox=\"0 0 \
          %.0f %.0f\">"
         m.Benchfile.reps bars_w h);
    Buffer.add_string b
      (Printf.sprintf
         "<line class=\"axis\" x1=\"%.1f\" y1=\"6\" x2=\"%.1f\" \
          y2=\"%.1f\"/>"
         bar_left bar_left (h -. 6.));
    List.iteri
      (fun i r ->
        let yy = 8. +. (float_of_int i *. bar_row_h) in
        let w =
          if vmax <= 0.0 then 2.0
          else Float.max 2.0 (r.Benchfile.p50_ns /. vmax *. plot_w)
        in
        let by = yy +. 18. in
        let bh = 16. in
        (* Rounded at the data end only; square at the baseline. *)
        let bar_path =
          Printf.sprintf
            "M%.1f %.1f H%.1f Q%.1f %.1f %.1f %.1f V%.1f Q%.1f %.1f %.1f \
             %.1f H%.1f Z"
            bar_left by
            (bar_left +. w -. 4.)
            (bar_left +. w) by (bar_left +. w) (by +. 4.)
            (by +. bh -. 4.)
            (bar_left +. w)
            (by +. bh)
            (bar_left +. w -. 4.)
            (by +. bh) bar_left
        in
        Buffer.add_string b
          (Printf.sprintf
             "<g class=\"bar\" data-tip=\"%s\"><text class=\"name\" \
              x=\"%.1f\" y=\"%.1f\">%s</text><path d=\"%s\"/><text \
              class=\"val\" x=\"%.1f\" y=\"%.1f\">%s</text></g>"
             (html_escape
                (Printf.sprintf
                   "<b>%s</b> mean %s · p50 %s · p95 %s · min %s · max %s"
                   (html_escape r.Benchfile.name)
                   (fmt_ns r.Benchfile.mean_ns)
                   (fmt_ns r.Benchfile.p50_ns)
                   (fmt_ns r.Benchfile.p95_ns)
                   (fmt_ns r.Benchfile.min_ns)
                   (fmt_ns r.Benchfile.max_ns)))
             bar_left (yy +. 12.)
             (html_escape r.Benchfile.name)
             bar_path
             (bar_left +. w +. 8.)
             (by +. bh -. 4.)
             (fmt_ns r.Benchfile.p50_ns)))
      results;
    Buffer.add_string b "</svg></figure>\n"
  end;
  Buffer.add_string b
    "<details><summary>Table view</summary><table><tr><th>kernel</th><th \
     class=\"n\">reps</th><th class=\"n\">mean</th><th \
     class=\"n\">p50</th><th class=\"n\">p95</th><th \
     class=\"n\">min</th><th class=\"n\">max</th><th class=\"n\">minor \
     w/run</th><th class=\"n\">major w/run</th></tr>";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "<tr><td>%s</td><td class=\"n\">%d</td><td \
            class=\"n\">%s</td><td class=\"n\">%s</td><td \
            class=\"n\">%s</td><td class=\"n\">%s</td><td \
            class=\"n\">%s</td><td class=\"n\">%s</td><td \
            class=\"n\">%s</td></tr>"
           (html_escape r.Benchfile.name)
           r.Benchfile.reps
           (fmt_ns r.Benchfile.mean_ns)
           (fmt_ns r.Benchfile.p50_ns)
           (fmt_ns r.Benchfile.p95_ns)
           (fmt_ns r.Benchfile.min_ns)
           (fmt_ns r.Benchfile.max_ns)
           (compact r.Benchfile.gc_minor_words)
           (compact r.Benchfile.gc_major_words)))
    results;
  Buffer.add_string b "</table></details>";
  page
    ~title:(Printf.sprintf "RiskRoute benchmarks — %s" source)
    ~subtitle:
      (Printf.sprintf "BENCH file schema %d · %s" m.Benchfile.schema source)
    ~body:(Buffer.contents b)

(* ------------------------------------------------------------------ *)

let render ~source text =
  match Json.parse text with
  | Error e -> Error (Printf.sprintf "%s: not valid JSON (%s)" source e)
  | Ok j ->
    if Option.is_some (Json.member "samples" j) then render_series ~source j
    else if Option.is_some (Json.member "results" j) then
      match Benchfile.of_json_string text with
      | Ok f -> Ok (render_bench ~source f)
      | Error e -> Error (Printf.sprintf "%s: %s" source e)
    else
      Error
        (Printf.sprintf
           "%s: unrecognized document — expected a telemetry series dump \
            (\"samples\") or a bench file (\"results\")"
           source)
