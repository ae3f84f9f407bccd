(* The portfolio solver's contract: racing is a pure scheduling
   optimisation. The chosen design, labeling and solver path are decided
   by the deterministic staged rule (solver priority, then
   semiperimeter, then order index) — never by wall-clock — so a
   portfolio run is byte-identical at every jobs count and matches its
   winning entrant run alone.

   Run via the @portfolio alias, which executes this binary at
   COMPACT_JOBS=1 and COMPACT_JOBS=4. *)

let check = Alcotest.check
let ts = Alcotest.string
let ti = Alcotest.int
let tb = Alcotest.bool

module Pipeline = Compact.Pipeline
module Report = Compact.Report

let netlist_of_expr name s =
  let e = Logic.Parse.expr s in
  let inputs = Logic.Expr.vars e in
  Logic.Netlist.create ~name ~inputs ~outputs:[ "f" ]
    [ Logic.Netlist.n_expr "f" e ]

let small_nl = netlist_of_expr "pf" "((a & b) | (c & ~d)) ^ (b & ~c) | (e & a)"

(* Canonical bytes of a design: the grid printer covers dimensions,
   programmed cells and port assignment — everything the mapper
   decides. *)
let design_bytes d = Format.asprintf "%a" Crossbar.Design.pp d

let portfolio_options ?(race_orders = 1) jobs =
  { Pipeline.default_options with solver = Portfolio; jobs; race_orders }

let synth ?race_orders jobs nl =
  Pipeline.synthesize ~options:(portfolio_options ?race_orders jobs) nl

let winner_of path =
  match
    List.filter_map
      (fun e ->
         match String.index_opt e '@' with
         | Some i when Filename.check_suffix e ":win" ->
           let rest = String.sub e (i + 1) (String.length e - i - 1) in
           let oi = int_of_string (List.hd (String.split_on_char ':' rest)) in
           Some (String.sub e 0 i, oi)
         | _ -> None)
      path
  with
  | [ w ] -> w
  | ws -> Alcotest.failf "expected exactly one :win entry, got %d" (List.length ws)

let determinism_tests =
  [
    Alcotest.test_case "byte-identical design at jobs=1 and jobs=4" `Quick
      (fun () ->
         let r1 = synth ~race_orders:3 1 small_nl in
         let r4 = synth ~race_orders:3 4 small_nl in
         check ts "design" (design_bytes r1.design) (design_bytes r4.design);
         check (Alcotest.list ts) "solver_path" r1.report.Report.solver_path
           r4.report.Report.solver_path;
         check ti "semiperimeter" r1.report.Report.semiperimeter
           r4.report.Report.semiperimeter);
    Alcotest.test_case "matches the winning entrant run alone" `Quick
      (fun () ->
         (* race_orders = 1: every entrant labels the same graph, so the
            winner's solver run by itself (same build, sequential) must
            reproduce the raced result bit for bit. *)
         let r = synth 4 small_nl in
         let wname, worder = winner_of r.report.Report.solver_path in
         check ti "winner labels the order-0 graph" 0 worder;
         let solver =
           match Pipeline.solver_of_name wname with
           | Some s -> s
           | None -> Alcotest.failf "unknown winner solver %S" wname
         in
         let seq =
           Pipeline.synthesize
             ~options:{ Pipeline.default_options with solver }
             small_nl
         in
         check ts "design" (design_bytes seq.design) (design_bytes r.design));
    Alcotest.test_case "every entrant is recorded with an outcome" `Quick
      (fun () ->
         let r = synth ~race_orders:2 4 small_nl in
         let path = r.report.Report.solver_path in
         check tb "at least the three rungs raced" true
           (List.length path >= 3);
         List.iter
           (fun e ->
              check tb (Printf.sprintf "entry %S is tagged" e) true
                (List.exists
                   (fun t -> Filename.check_suffix e t)
                   [ ":win"; ":ok"; ":partial"; ":error"; ":cut" ]))
           path;
         ignore (winner_of path);
         check ti "retries count the entrants that ran and lost"
           (List.length
              (List.filter
                 (fun e ->
                    List.exists (Filename.check_suffix e)
                      [ ":partial"; ":error" ])
                 path))
           r.report.Report.solver_retries);
    Alcotest.test_case "Auto is the one-order race" `Quick (fun () ->
        (* With race_orders = 1 the portfolio races exactly Auto's
           ladder on the build order, so both land on the same rung and
           the same design at every jobs count. *)
        List.iter
          (fun (name, nl) ->
             List.iter
               (fun jobs ->
                  let label = Printf.sprintf "%s jobs=%d" name jobs in
                  let auto =
                    Pipeline.synthesize
                      ~options:{ Pipeline.default_options with jobs }
                      nl
                  in
                  let raced = synth jobs nl in
                  check ts (label ^ " design") (design_bytes auto.design)
                    (design_bytes raced.design);
                  let path = auto.report.Report.solver_path in
                  check ts (label ^ " winning rung")
                    (List.nth path (List.length path - 1))
                    (fst (winner_of raced.report.Report.solver_path)))
               [ 1; 4 ])
          [
            "pf", small_nl;
            "ctrl", (Circuits.Suite.find "ctrl").generate ();
            "cavlc", (Circuits.Suite.find "cavlc").generate ();
          ]);
    Alcotest.test_case "verifies functionally" `Quick (fun () ->
        let r = synth ~race_orders:2 4 small_nl in
        check tb "verified" true
          (Crossbar.Verify.auto ~trials:128 r.design
             ~inputs:small_nl.Logic.Netlist.inputs
             ~reference:(Logic.Netlist.eval_point small_nl)
             ~outputs:small_nl.Logic.Netlist.outputs
           = Crossbar.Verify.Ok));
  ]

let pristine_tests =
  [
    Alcotest.test_case "path_pristine classification" `Quick (fun () ->
        let p = Report.path_pristine in
        check tb "single rung" true (p [ "mip" ]);
        check tb "empty" false (p []);
        check tb "watchdog fallback" false (p [ "mip"; "heuristic" ]);
        check tb "clean race" true
          (p [ "mip@0:win"; "mip@1:ok"; "heuristic@0:cut" ]);
        check tb "partial entrant" false
          (p [ "mip@0:partial"; "heuristic@0:win" ]);
        check tb "errored entrant" false
          (p [ "mip@0:error"; "heuristic@0:win" ]));
    Alcotest.test_case "in-budget portfolio runs are pristine" `Quick
      (fun () ->
        let r = synth ~race_orders:2 4 small_nl in
        check tb "pristine" true
          (Report.path_pristine r.report.Report.solver_path);
        check ti "a clean race retried nothing" 0
          r.report.Report.solver_retries)
  ]

(* The server must treat the portfolio like any other solver: identical
   request bytes -> identical response bytes at every engine width, and
   clean raced paths are cacheable. *)
let server_tests =
  let module Engine = Server.Engine in
  let module J = Obs.Json in
  let line =
    {|{"op":"synth","id":1,"expr":"((a & b) | (c & ~d)) ^ (b & ~c)","options":{"solver":"portfolio","race_orders":2}}|}
  in
  [
    Alcotest.test_case "identical responses at engine jobs=1 and jobs=4"
      `Quick (fun () ->
        let r1 =
          Engine.handle (Engine.create Engine.default_config) line
        in
        let r4 =
          Engine.handle
            (Engine.create { Engine.default_config with Engine.jobs = 4 })
            line
        in
        check ts "response" r1 r4);
    Alcotest.test_case "clean raced result is cached" `Quick (fun () ->
        let e = Engine.create Engine.default_config in
        ignore (Engine.handle e line : string);
        let first_solves = (Engine.stats e).Engine.solves in
        let resp = Engine.handle e line in
        check ti "second request does not re-solve" first_solves
          (Engine.stats e).Engine.solves;
        (match J.member "cached" (J.parse resp) with
         | Some (J.Bool b) -> check tb "served from cache" true b
         | _ -> Alcotest.fail "no cached field in response"));
    Alcotest.test_case "race_orders is part of the cache key" `Quick
      (fun () ->
        let line' =
          {|{"op":"synth","id":1,"expr":"((a & b) | (c & ~d)) ^ (b & ~c)","options":{"solver":"portfolio","race_orders":1}}|}
        in
        let e = Engine.create Engine.default_config in
        ignore (Engine.handle e line : string);
        ignore (Engine.handle e line' : string);
        check ti "two distinct solves" 2 (Engine.stats e).Engine.solves);
  ]

let () =
  Alcotest.run "portfolio"
    [
      "determinism", determinism_tests;
      "pristine", pristine_tests;
      "server", server_tests;
    ]
