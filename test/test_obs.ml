(* Obs: spans, metrics, drain determinism, JSON and exporters. *)

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Every test owns the global recorder: force a known enabled state and
   an empty buffer on entry, and leave tracing off on exit so suites
   running after this one see the default-off behaviour regardless of
   COMPACT_TRACE in the environment. *)
let with_recording f () =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let spans snap =
  List.filter (fun e -> not e.Obs.ev_instant) snap.Obs.events

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotonic () =
  let t0 = Obs.Clock.now () in
  let n0 = Obs.Clock.now_ns () in
  let t1 = Obs.Clock.now () in
  check bool "now non-decreasing" true (t1 >= t0);
  check bool "now_ns positive" true (Int64.compare n0 0L > 0)

(* ------------------------------------------------------------------ *)
(* Span recording *)

let test_span_nesting =
  with_recording @@ fun () ->
  let r =
    Obs.Span.with_ "outer" (fun () ->
        Obs.Span.with_ ~attrs:[ "k", "v" ] "inner" (fun () ->
            Obs.Span.event ~attrs:[ "n", "1" ] "tick";
            7)
        + Obs.Span.with_ "sibling" (fun () -> 1))
  in
  check int "result through spans" 8 r;
  let snap = Obs.drain () in
  let paths =
    List.map (fun e -> e.Obs.ev_path, e.Obs.ev_name, e.Obs.ev_instant)
      snap.Obs.events
  in
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.string Alcotest.bool))
    "canonical event order"
    [
      "", "outer", false;
      "outer", "inner", false;
      "outer", "sibling", false;
      "outer/inner", "tick", true;
    ]
    paths;
  let inner =
    List.find (fun e -> e.Obs.ev_name = "inner") snap.Obs.events
  in
  check bool "declared attr kept" true (List.mem_assoc "k" inner.Obs.ev_attrs);
  check bool "gc.minor_words attr added" true
    (List.mem_assoc "gc.minor_words" inner.Obs.ev_attrs);
  check bool "durations non-negative" true
    (List.for_all (fun e -> e.Obs.ev_dur >= 0.) snap.Obs.events)

let test_span_add_attr =
  with_recording @@ fun () ->
  Obs.Span.with_ "s" (fun () -> Obs.Span.add_attr "late" "yes");
  let snap = Obs.drain () in
  match spans snap with
  | [ e ] -> check bool "late attr" true (List.mem ("late", "yes") e.Obs.ev_attrs)
  | es -> Alcotest.failf "expected 1 span, got %d" (List.length es)

let test_span_exception =
  with_recording @@ fun () ->
  (try Obs.Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
  let snap = Obs.drain () in
  check int "span recorded despite raise" 1 (List.length (spans snap))

(* ------------------------------------------------------------------ *)
(* Disabled mode *)

let test_disabled_no_events () =
  Obs.set_enabled true;
  Obs.reset ();
  Obs.set_enabled false;
  let c = Obs.Counter.make "test.disabled_counter" in
  let g = Obs.Gauge.make "test.disabled_gauge" in
  let r =
    Obs.Span.with_ "invisible" (fun () ->
        Obs.Span.event "nothing";
        Obs.Counter.add c 5;
        Obs.Gauge.set g 1.;
        Obs.Span.add_attr "k" "v";
        42)
  in
  check int "value passes through" 42 r;
  Obs.set_enabled true;
  let snap = Obs.drain () in
  Obs.set_enabled false;
  check int "no events recorded" 0 (List.length snap.Obs.events);
  check int "no metrics registered" 0 (List.length snap.Obs.counters)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counters =
  with_recording @@ fun () ->
  let c = Obs.Counter.make "test.c" in
  let g = Obs.Gauge.make "test.g" in
  Obs.Counter.add c 3;
  Obs.Counter.incr c;
  Obs.Gauge.set g 2.5;
  let snap = Obs.drain () in
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.)))
    "drained metrics, sorted" [ "test.c", 4.; "test.g", 2.5 ]
    snap.Obs.counters;
  (* drain resets both value and registration... *)
  let snap2 = Obs.drain () in
  check int "registry cleared by drain" 0 (List.length snap2.Obs.counters);
  (* ...and the next touch re-registers from zero. *)
  Obs.Counter.incr c;
  let snap3 = Obs.drain () in
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.float 0.)))
    "re-registered after drain" [ "test.c", 1. ] snap3.Obs.counters

(* ------------------------------------------------------------------ *)
(* Drain determinism across jobs counts *)

let record_workload jobs =
  Obs.set_enabled true;
  Obs.reset ();
  let squares =
    Obs.Span.with_ "root" (fun () ->
        Parallel.with_pool ~jobs (fun pool ->
            Parallel.map pool
              (fun i ->
                 let item = string_of_int i in
                 Obs.Span.with_ ~attrs:[ "item", item ] "work" (fun () ->
                     Obs.Span.event ~attrs:[ "item", item ] "tick";
                     i * i))
              (List.init 16 Fun.id)))
  in
  let snap = Obs.drain () in
  Obs.set_enabled false;
  check (Alcotest.list Alcotest.int) "results independent of jobs"
    (List.init 16 (fun i -> i * i))
    squares;
  snap

let test_drain_deterministic_across_jobs () =
  let j1 = Obs.Export.normalize_jsonl (Obs.Export.jsonl (record_workload 1)) in
  let j4 = Obs.Export.normalize_jsonl (Obs.Export.jsonl (record_workload 4)) in
  check string "normalized JSONL byte-identical, jobs=1 vs 4" j1 j4

let test_worker_spans_have_submitter_path () =
  let snap = record_workload 4 in
  let work =
    List.filter (fun e -> e.Obs.ev_name = "work") snap.Obs.events
  in
  check int "all tasks traced" 16 (List.length work);
  check bool "task spans rooted under submitter span" true
    (List.for_all (fun e -> e.Obs.ev_path = "root") work)

(* ------------------------------------------------------------------ *)
(* JSON *)

let rec json_equal a b =
  match a, b with
  | Obs.Json.Null, Obs.Json.Null -> true
  | Obs.Json.Bool x, Obs.Json.Bool y -> x = y
  | Obs.Json.Num x, Obs.Json.Num y -> x = y
  | Obs.Json.Str x, Obs.Json.Str y -> x = y
  | Obs.Json.Arr xs, Obs.Json.Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Obs.Json.Obj xs, Obs.Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
         xs ys
  | _ -> false

let test_json_parse () =
  let open Obs.Json in
  check bool "null" true (json_equal (parse "null") Null);
  check bool "bools" true (json_equal (parse " true ") (Bool true));
  check bool "number" true (json_equal (parse "-1.5e3") (Num (-1500.)));
  check bool "escapes" true
    (json_equal (parse {|"a\nbA\\"|}) (Str "a\nbA\\"));
  check bool "nested" true
    (json_equal
       (parse {|{"a":[1,{"b":false}],"c":""}|})
       (Obj
          [
            "a", Arr [ Num 1.; Obj [ "b", Bool false ] ];
            "c", Str "";
          ]));
  let raises s =
    match parse s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  check bool "unterminated object" true (raises "{");
  check bool "bad literal" true (raises "tru");
  check bool "trailing garbage" true (raises "1 2");
  check bool "member hit" true
    (json_equal (Option.get (member "a" (parse {|{"a":3}|}))) (Num 3.));
  check bool "member miss" true (member "z" (parse {|{"a":3}|}) = None);
  let doc = parse {|{"x":[1,2,"s"],"y":{"z":null}}|} in
  check bool "to_string round-trips" true
    (json_equal (parse (to_string doc)) doc)

(* The writer's number and string printers as they were before their
   fast paths, kept as references: the fast paths must not move a byte. *)
let reference_num_to_string f =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan f then 0. else f)
  else Printf.sprintf "%.9g" f

let reference_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let number_gen =
  let open QCheck2.Gen in
  let e15 = 1_000_000_000_000_000 in
  frequency
    [
      4, map float_of_int (int_range (-e15) e15);
      2, map float_of_int (int_range (-1000) 1000);
      1, oneofl [ -0.; 0.; 1e15; -1e15; 1e15 -. 1.; nan; infinity; neg_infinity ];
      3, float;
      2, map (fun x -> x +. 0.5) (map float_of_int (int_range (-1000) 1000));
    ]

let string_gen =
  let open QCheck2.Gen in
  string_size ~gen:
    (frequency
       [
         8, printable;
         1, oneofl [ '"'; '\\' ];
         1, map Char.chr (int_range 0 0x1f);
         1, map Char.chr (int_range 0x7f 0xff);
       ])
    (int_range 0 12)

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let json_fast_path_tests =
  let case name gen prop =
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:(500 * qcheck_mult) ~name gen prop)
  in
  [
    case "numbers print as before" number_gen (fun f ->
        Obs.Json.to_string (Obs.Json.Num f) = reference_num_to_string f);
    case "strings and keys escape as before" string_gen (fun s ->
        let quoted = "\"" ^ reference_escape s ^ "\"" in
        Obs.Json.to_string (Obs.Json.Str s) = quoted
        && Obs.Json.to_string (Obs.Json.Obj [ s, Obs.Json.Null ])
           = "{" ^ quoted ^ ":null}");
  ]

(* ------------------------------------------------------------------ *)
(* Exporters *)

let small_snapshot () =
  Obs.set_enabled true;
  Obs.reset ();
  let c = Obs.Counter.make "test.export_counter" in
  Obs.Span.with_ "a" (fun () ->
      Obs.Counter.incr c;
      Obs.Span.with_ "b" (fun () -> Obs.Span.event "e"));
  let snap = Obs.drain () in
  Obs.set_enabled false;
  snap

let test_jsonl_shape () =
  let snap = small_snapshot () in
  let lines =
    Obs.Export.jsonl snap |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  check int "one line per event" (List.length snap.Obs.events)
    (List.length lines);
  List.iter
    (fun line ->
       let j = Obs.Json.parse line in
       List.iter
         (fun field ->
            check bool (field ^ " present") true
              (Obs.Json.member field j <> None))
         [ "path"; "name"; "kind"; "ts"; "dur"; "attrs" ])
    lines

let test_normalize_idempotent () =
  let s = Obs.Export.jsonl (small_snapshot ()) in
  let n1 = Obs.Export.normalize_jsonl s in
  check string "idempotent" n1 (Obs.Export.normalize_jsonl n1);
  check bool "zeroes timestamps" true
    (String.split_on_char '\n' n1
     |> List.filter (fun l -> String.trim l <> "")
     |> List.for_all (fun l ->
         match Obs.Json.member "ts" (Obs.Json.parse l) with
         | Some (Obs.Json.Num 0.) -> true
         | _ -> false))

let test_chrome_valid () =
  let snap = small_snapshot () in
  let doc = Obs.Json.parse (Obs.Export.chrome snap) in
  match Obs.Json.member "traceEvents" doc with
  | Some (Obs.Json.Arr evs) ->
    let ph p ev =
      match Obs.Json.member "ph" ev with
      | Some (Obs.Json.Str s) -> s = p
      | _ -> false
    in
    check int "one X event per span"
      (List.length (spans snap))
      (List.length (List.filter (ph "X") evs));
    check int "one i event per instant" 1
      (List.length (List.filter (ph "i") evs));
    check bool "counter events present" true
      (List.exists (ph "C") evs);
    check bool "thread metadata present" true
      (List.exists (ph "M") evs);
    (* Serialize-and-reparse is structure-preserving. *)
    check bool "round-trip" true
      (json_equal (Obs.Json.parse (Obs.Json.to_string doc)) doc)
  | _ -> Alcotest.fail "missing traceEvents array"

(* ------------------------------------------------------------------ *)
(* Aggregation *)

let test_agg_phases =
  with_recording @@ fun () ->
  Obs.Span.with_ "p" (fun () ->
      Obs.Span.with_ "q" (fun () -> ());
      Obs.Span.with_ "q" (fun () -> ());
      Obs.Span.event "not-a-span");
  let rows = Obs.Agg.phases (Obs.drain ()) in
  let tags = List.map (fun r -> r.Obs.Agg.r_path, r.Obs.Agg.r_name) rows in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "rows chronological, instants excluded"
    [ "", "p"; "p", "q" ]
    tags;
  let q = List.find (fun r -> r.Obs.Agg.r_name = "q") rows in
  check int "repeat spans folded" 2 q.Obs.Agg.r_count;
  check bool "durations summed" true (q.Obs.Agg.r_total >= 0.)

(* ------------------------------------------------------------------ *)
(* Histograms: bucketing, quantiles and the exact-percentile helper
   the load generator shares. *)

let with_metrics f =
  Obs.set_metrics_enabled true;
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
      Obs.set_metrics_enabled false;
      Obs.reset ())

let test_hist_quantiles () =
  with_metrics @@ fun () ->
  let h = Obs.Hist.make_ms "test.h-quantiles" in
  check (Alcotest.float 0.) "empty histogram quantile" 0.
    (Obs.Hist.quantile h 50);
  for i = 1 to 100 do
    Obs.Hist.observe h (float_of_int i)
  done;
  (* Log buckets report an upper bound: the quantile may overshoot the
     exact value by one bucket width (<= 2^(1/4) here) but never
     undershoots it. *)
  List.iter
    (fun p ->
       let q = Obs.Hist.quantile h p in
       let exact = float_of_int p in
       check bool
         (Printf.sprintf "p%d in [exact, exact * 2^(1/4)]" p)
         true
         (q >= exact && q <= exact *. Float.exp2 0.25 *. 1.0001))
    [ 50; 90; 99 ]

let test_hist_nan_and_overflow () =
  with_metrics @@ fun () ->
  let h = Obs.Hist.make_ms "test.h-edges" in
  Obs.Hist.observe h Float.nan;
  Obs.Hist.observe h 1e12;
  (* Both land in real buckets: the quantile walk still terminates and
     the total still counts them. *)
  check bool "underflow + overflow counted" true
    (Obs.Hist.quantile h 100 > 0.)

let test_percentile_exact () =
  let pe = Obs.Hist.percentile_exact in
  check (Alcotest.float 0.) "empty is 0, not nan" 0. (pe [||] 50);
  check (Alcotest.float 0.) "singleton" 42. (pe [| 42. |] 50);
  check (Alcotest.float 0.) "two samples, p50 is the lower" 1.
    (pe [| 2.; 1. |] 50);
  check (Alcotest.float 0.) "two samples, p99 is the upper" 2.
    (pe [| 2.; 1. |] 99);
  check (Alcotest.float 0.) "p clamped above" 3. (pe [| 1.; 2.; 3. |] 200);
  check (Alcotest.float 0.) "input left unsorted" 2.
    (let a = [| 2.; 1. |] in
     ignore (pe a 99 : float);
     a.(0))

let test_hist_gated_off () =
  (* Like counters, histograms record nothing when neither tracing nor
     the metrics plane is armed. *)
  let h = Obs.Hist.make_ms "test.h-gated" in
  Obs.Hist.observe h 5.;
  with_metrics @@ fun () ->
  check (Alcotest.float 0.) "observation before arming dropped" 0.
    (Obs.Hist.quantile h 100)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      "clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ];
      ( "span",
        [
          Alcotest.test_case "nesting and order" `Quick test_span_nesting;
          Alcotest.test_case "add_attr" `Quick test_span_add_attr;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
        ] );
      ( "disabled",
        [ Alcotest.test_case "no events, no metrics" `Quick
            test_disabled_no_events ] );
      "metrics", [ Alcotest.test_case "counters and gauges" `Quick test_counters ];
      ( "hist",
        [
          Alcotest.test_case "log-bucket quantiles" `Quick
            test_hist_quantiles;
          Alcotest.test_case "nan and overflow land in buckets" `Quick
            test_hist_nan_and_overflow;
          Alcotest.test_case "percentile_exact edge cases" `Quick
            test_percentile_exact;
          Alcotest.test_case "gated off when unarmed" `Quick
            test_hist_gated_off;
        ] );
      ( "drain",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_drain_deterministic_across_jobs;
          Alcotest.test_case "worker spans under submitter" `Quick
            test_worker_spans_have_submitter_path;
        ] );
      ( "json",
        Alcotest.test_case "parse and print" `Quick test_json_parse
        :: json_fast_path_tests );
      ( "export",
        [
          Alcotest.test_case "jsonl shape" `Quick test_jsonl_shape;
          Alcotest.test_case "normalize idempotent" `Quick
            test_normalize_idempotent;
          Alcotest.test_case "chrome valid json" `Quick test_chrome_valid;
        ] );
      "agg", [ Alcotest.test_case "phases" `Quick test_agg_phases ];
    ]
