(* Tests for the experiment harness: table rendering and the smallest
   end-to-end experiment paths. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

let table_tests =
  [
    Alcotest.test_case "render pads and aligns" `Quick (fun () ->
        let out =
          Harness.Table.render
            ~columns:[ "name", Harness.Table.L; "n", Harness.Table.R ]
            ~rows:[ [ "a"; "1" ]; [ "long"; "22" ] ]
        in
        let lines = String.split_on_char '\n' out in
        check ti "4 lines" 4 (List.length lines);
        (* all lines equal width *)
        let widths = List.map String.length lines in
        List.iter (fun w -> check ti "width" (List.hd widths) w) widths;
        check tb "right aligned" true
          (String.ends_with ~suffix:" 1" (List.nth lines 2)));
    Alcotest.test_case "fmt helpers" `Quick (fun () ->
        check ts "pct" "55%" (Harness.Table.fmt_pct 0.55);
        check ts "small float" "0.123" (Harness.Table.fmt_f 0.1234);
        check ts "large float" "123.5" (Harness.Table.fmt_f 123.454));
  ]

let tiny_config =
  {
    Harness.Experiments.time_limit = 0.5;
    bdd_node_limit = 50_000;
    max_graph_nodes = 2_000;
    verify_designs = true;
    jobs = Parallel.default_jobs ();
  }

let experiment_tests =
  [
    Alcotest.test_case "sbdd_of builds under the node limit" `Quick (fun () ->
        match
          Harness.Experiments.sbdd_of tiny_config (Circuits.Suite.find "ctrl")
        with
        | Some sbdd -> check tb "nonempty" true (Bdd.Sbdd.size sbdd > 0)
        | None -> Alcotest.fail "ctrl must fit");
    Alcotest.test_case "the harness order is sifted and stable" `Quick
      (fun () ->
        List.iter
          (fun name ->
             let e = Circuits.Suite.find name in
             let nl = e.generate () in
             let harness () =
               match Harness.Experiments.sbdd_of tiny_config e with
               | Some sbdd -> sbdd
               | None -> Alcotest.failf "%s must fit" name
             in
             let sbdd = harness () in
             let order = Array.to_list sbdd.input_order in
             check
               Alcotest.(list string)
               (name ^ " permutes the inputs")
               (List.sort String.compare nl.inputs)
               (List.sort String.compare order);
             let _, static =
               Bdd.Sbdd.best_order ~node_limit:tiny_config.bdd_node_limit nl
             in
             check tb (name ^ " no larger than static") true
               (Bdd.Sbdd.size sbdd <= static);
             check
               Alcotest.(list string)
               (name ^ " second call") order
               (Array.to_list (harness ()).input_order))
          [ "ctrl"; "cavlc"; "dec"; "int2float" ]);
    Alcotest.test_case "sbdd_of respects the node limit" `Quick (fun () ->
        let starved = { tiny_config with bdd_node_limit = 4 } in
        check tb "rejected" true
          (Harness.Experiments.sbdd_of starved (Circuits.Suite.find "cavlc")
           = None));
    Alcotest.test_case "fig11 gaps lie in [0, 1]" `Quick (fun () ->
        let gaps = Harness.Experiments.fig11 tiny_config in
        List.iter
          (fun (_, gap) -> check tb "range" true (gap >= 0. && gap <= 1.))
          gaps);
    Alcotest.test_case "verify raises on every junction drop that breaks ctrl"
      `Quick (fun () ->
        let e = Circuits.Suite.find "ctrl" in
        let nl = e.generate () in
        let d = (Compact.Pipeline.synthesize nl).Compact.Pipeline.design in
        let verify config d = Harness.Experiments.verify config e d in
        verify tiny_config d;
        let cells = ref [] in
        Crossbar.Design.iter_programmed d (fun row col _ ->
            cells := (row, col) :: !cells);
        (* Drop one programmed junction at a time; ctrl has 7 inputs, so
           verify checks every row and must raise exactly when some row
           computes the wrong value. *)
        let broken =
          List.filter_map
            (fun (row, col) ->
               let m = Crossbar.Design.copy d in
               Crossbar.Design.set m ~row ~col Crossbar.Literal.Off;
               let wrong =
                 Crossbar.Verify.exhaustive m ~inputs:nl.inputs
                   ~reference:(Logic.Netlist.eval_point nl)
                   ~outputs:nl.outputs
                 <> Crossbar.Verify.Ok
               in
               match verify tiny_config m with
               | () ->
                 check tb "a passing drop is correct" false wrong;
                 None
               | exception Failure msg ->
                 check tb "a raising drop is wrong" true wrong;
                 check tb "names the circuit" true
                   (String.starts_with ~prefix:"ctrl: " msg);
                 Some m)
            !cells
        in
        check tb "some drop breaks ctrl" true (broken <> []);
        let unchecked = { tiny_config with verify_designs = false } in
        List.iter (fun m -> verify unchecked m) broken);
    Alcotest.test_case "fig13 covers only EPFL circuits" `Quick (fun () ->
        let data = Harness.Experiments.fig13 tiny_config in
        List.iter
          (fun (name, power, delay) ->
             check tb "epfl" true
               ((Circuits.Suite.find name).category
                = Circuits.Suite.Epfl_control);
             check tb "positive" true (power > 0. && delay > 0.))
          data);
  ]

let () =
  Alcotest.run "harness"
    [ "table", table_tests; "experiments", experiment_tests ]
