(* Tests for the variation-aware electrical layer: deviation sampling,
   closed-form nodal analysis, CG fallback robustness, margin / Monte
   Carlo determinism, and the pipeline hardening stage. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let near tol = Alcotest.float tol

(* Fig 2 crossbar for f = (a & b) | c (same fixture as test_crossbar). *)
let fig2_design () =
  let d =
    Crossbar.Design.create ~rows:3 ~cols:2 ~input:(Crossbar.Design.Row 2)
      ~outputs:[ "f", Crossbar.Design.Row 0 ]
  in
  Crossbar.Design.set d ~row:0 ~col:0 (Crossbar.Literal.Neg "a");
  Crossbar.Design.set d ~row:0 ~col:1 (Crossbar.Literal.Pos "a");
  Crossbar.Design.set d ~row:1 ~col:0 (Crossbar.Literal.Neg "b");
  Crossbar.Design.set d ~row:1 ~col:1 Crossbar.Literal.On;
  Crossbar.Design.set d ~row:2 ~col:0 (Crossbar.Literal.Pos "c");
  Crossbar.Design.set d ~row:2 ~col:1 (Crossbar.Literal.Pos "b");
  d

let fig2_inputs = [ "a"; "b"; "c" ]
let fig2_reference point = [| (point.(0) && point.(1)) || point.(2) |]

(* Two On junctions in series with the sensing resistor. *)
let chain_design () =
  let d =
    Crossbar.Design.create ~rows:2 ~cols:1 ~input:(Crossbar.Design.Row 1)
      ~outputs:[ "f", Crossbar.Design.Row 0 ]
  in
  Crossbar.Design.set d ~row:1 ~col:0 Crossbar.Literal.On;
  Crossbar.Design.set d ~row:0 ~col:0 Crossbar.Literal.On;
  d

let variation_tests =
  [
    Alcotest.test_case "same seed, same sample" `Quick (fun () ->
        let spec = Crossbar.Variation.default_spec in
        let a = Crossbar.Variation.sample ~seed:7 spec ~rows:4 ~cols:5 in
        let b = Crossbar.Variation.sample ~seed:7 spec ~rows:4 ~cols:5 in
        check tb "identical" true (a = b));
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let spec = Crossbar.Variation.default_spec in
        let a = Crossbar.Variation.sample ~seed:7 spec ~rows:4 ~cols:5 in
        let b = Crossbar.Variation.sample ~seed:8 spec ~rows:4 ~cols:5 in
        check tb "distinct" true (a <> b));
    Alcotest.test_case "nominal spec samples the ideal array" `Quick (fun () ->
        let d = Crossbar.Variation.sample Crossbar.Variation.nominal ~rows:3 ~cols:2 in
        check tb "ideal" true (d = Crossbar.Analog.ideal ~rows:3 ~cols:2));
    Alcotest.test_case "corners move the right knobs" `Quick (fun () ->
        let spec = Crossbar.Variation.default_spec in
        let weak = Crossbar.Variation.corner spec Crossbar.Variation.Weak_on ~rows:2 ~cols:2 in
        let leaky = Crossbar.Variation.corner spec Crossbar.Variation.Leaky_off ~rows:2 ~cols:2 in
        check tb "weak_on raises r_on" true (weak.on_scale.(0).(0) > 1.);
        check tb "weak_on keeps r_off" true (abs_float (weak.off_scale.(0).(0) -. 1.) < 1e-12);
        check tb "leaky_off lowers r_off" true (leaky.off_scale.(0).(0) < 1.);
        let worst = Crossbar.Variation.corner spec Crossbar.Variation.Worst ~rows:2 ~cols:2 in
        check tb "worst does both" true
          (worst.on_scale.(0).(0) > 1. && worst.off_scale.(0).(0) < 1.));
  ]

let closed_form_tests =
  [
    Alcotest.test_case "series chain divider to 1e-6" `Quick (fun () ->
        (* v_out = V * Rs / (Rs + 2 Ron); the intermediate bitline sits at
           the midpoint of the remaining drop. *)
        let p = Crossbar.Analog.default_params in
        let sol = Crossbar.Analog.solve ~params:p (chain_design ()) (fun _ -> false) in
        let v_out = p.v_in *. p.r_sense /. (p.r_sense +. (2. *. p.r_on)) in
        check (near 1e-6) "row0" v_out sol.v_rows.(0);
        check (near 1e-6) "col0 midpoint" ((p.v_in +. v_out) /. 2.) sol.v_cols.(0));
    Alcotest.test_case "all-On 2x2 to 1e-6" `Quick (fun () ->
        (* Two parallel 2-junction paths: r0 = V Rs / (Rs + Ron), both
           bitlines at (V + r0) / 2 by symmetry. *)
        let d =
          Crossbar.Design.create ~rows:2 ~cols:2 ~input:(Crossbar.Design.Row 1)
            ~outputs:[ "f", Crossbar.Design.Row 0 ]
        in
        for r = 0 to 1 do
          for c = 0 to 1 do
            Crossbar.Design.set d ~row:r ~col:c Crossbar.Literal.On
          done
        done;
        let p = Crossbar.Analog.default_params in
        let sol = Crossbar.Analog.solve ~params:p d (fun _ -> false) in
        let r0 = p.v_in *. p.r_sense /. (p.r_sense +. p.r_on) in
        check (near 1e-6) "row0" r0 sol.v_rows.(0);
        check (near 1e-6) "col0" ((p.v_in +. r0) /. 2.) sol.v_cols.(0);
        check (near 1e-6) "col1" ((p.v_in +. r0) /. 2.) sol.v_cols.(1));
    Alcotest.test_case "distributed chain adds the wire segment" `Quick
      (fun () ->
         (* One bitline segment of 50 ohm in the only path:
            v_out = V Rs / (Rs + 2 Ron + r_seg). *)
         let d = chain_design () in
         let p = Crossbar.Analog.default_params in
         let dev =
           { (Crossbar.Analog.ideal ~rows:2 ~cols:1) with col_seg_r = [| 50. |] }
         in
         let sol = Crossbar.Analog.solve ~params:p ~deviations:dev d (fun _ -> false) in
         let v_out = p.v_in *. p.r_sense /. (p.r_sense +. (2. *. p.r_on) +. 50.) in
         check (near 1e-6) "row0" v_out sol.v_rows.(0));
    Alcotest.test_case "deviation scale shifts the divider" `Quick (fun () ->
        (* Doubling r_on via on_scale must match doubling it in params. *)
        let d = chain_design () in
        let dev = Crossbar.Analog.ideal ~rows:2 ~cols:1 in
        dev.on_scale.(0).(0) <- 2.;
        dev.on_scale.(1).(0) <- 2.;
        let p = Crossbar.Analog.default_params in
        let sol = Crossbar.Analog.solve ~params:p ~deviations:dev d (fun _ -> false) in
        let v_out = p.v_in *. p.r_sense /. (p.r_sense +. (4. *. p.r_on)) in
        check (near 1e-6) "row0" v_out sol.v_rows.(0));
    Alcotest.test_case "wrong-shape deviations rejected" `Quick (fun () ->
        let d = chain_design () in
        let dev = Crossbar.Analog.ideal ~rows:3 ~cols:2 in
        check tb "raises" true
          (match Crossbar.Analog.solve ~deviations:dev d (fun _ -> false) with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

let solver_tests =
  [
    Alcotest.test_case "starved CG falls back to dense and is correct" `Quick
      (fun () ->
         let d = fig2_design () in
         let env v = v <> "c" in
         let reference = Crossbar.Analog.solve d env in
         let opts =
           { Crossbar.Analog.default_solver_opts with cg_max_iter = Some 0 }
         in
         let sol = Crossbar.Analog.solve ~opts d env in
         check tb "dense method" true (sol.solve_method = Crossbar.Analog.Dense);
         check tb "has reason" true (sol.fallback_reason <> None);
         check tb "converged" true (sol.residual < Crossbar.Analog.read_tol);
         Array.iteri
           (fun i v -> check (near 1e-8) (Printf.sprintf "row %d" i) v sol.v_rows.(i))
           reference.v_rows);
    Alcotest.test_case "partial CG rescue is labeled Cg_then_dense" `Quick
      (fun () ->
         let opts =
           { Crossbar.Analog.default_solver_opts with cg_max_iter = Some 2 }
         in
         let sol = Crossbar.Analog.solve ~opts (fig2_design ()) (fun _ -> true) in
         check tb "rescued" true
           (sol.solve_method = Crossbar.Analog.Cg_then_dense
            || sol.solve_method = Crossbar.Analog.Cg);
         check tb "converged" true (sol.residual < Crossbar.Analog.read_tol));
    Alcotest.test_case "read_outputs refuses unconverged voltages" `Quick
      (fun () ->
         let opts =
           {
             Crossbar.Analog.default_solver_opts with
             cg_max_iter = Some 0;
             allow_dense = false;
           }
         in
         check tb "raises" true
           (match Crossbar.Analog.read_outputs ~opts (fig2_design ()) (fun _ -> true) with
            | exception Crossbar.Analog.No_convergence _ -> true
            | _ -> false));
    Alcotest.test_case "conditioning estimate is sane" `Quick (fun () ->
        let sol = Crossbar.Analog.solve (fig2_design ()) (fun _ -> true) in
        check tb ">= 1" true (sol.condition >= 1.);
        check tb "finite" true (Float.is_finite sol.condition));
  ]

let margin_tests =
  [
    Alcotest.test_case "fig2 margins are positive and exhaustive" `Quick
      (fun () ->
         let a =
           Crossbar.Margin.analyze (fig2_design ()) ~inputs:fig2_inputs
             ~reference:fig2_reference ~outputs:[ "f" ]
         in
         check tb "exhaustive" true a.exhaustive;
         check ti "points" 8 a.checked;
         check tb "positive" true (a.worst > 0.);
         check ti "one output" 1 (List.length a.per_output);
         check ti "unconverged" 0 a.unconverged);
    Alcotest.test_case "a sneak path turns the margin negative" `Quick
      (fun () ->
         let d = fig2_design () in
         Crossbar.Design.set d ~row:2 ~col:0 Crossbar.Literal.On;
         let a =
           Crossbar.Margin.analyze d ~inputs:fig2_inputs
             ~reference:fig2_reference ~outputs:[ "f" ]
         in
         check tb "negative" true (a.worst < 0.));
    Alcotest.test_case "worst corner is no better than typical" `Quick
      (fun () ->
         let corners =
           Crossbar.Margin.corners ~spec:Crossbar.Variation.default_spec
             (fig2_design ()) ~inputs:fig2_inputs ~reference:fig2_reference
             ~outputs:[ "f" ]
         in
         let at c = (List.assoc c corners).Crossbar.Margin.worst in
         check tb "ordered" true
           (at Crossbar.Variation.Worst <= at Crossbar.Variation.Typical);
         check (near 1e-12) "worst_over_corners"
           (List.fold_left (fun acc (_, a) -> min acc a.Crossbar.Margin.worst)
              infinity corners)
           (Crossbar.Margin.worst_over_corners corners));
    Alcotest.test_case "analysis JSON is bit-identical under a seed" `Quick
      (fun () ->
         let run () =
           Crossbar.Margin.analyze ~seed:11 (fig2_design ())
             ~inputs:fig2_inputs ~reference:fig2_reference ~outputs:[ "f" ]
         in
         check Alcotest.string "equal"
           (Crossbar.Margin.json_of_analysis (run ()))
           (Crossbar.Margin.json_of_analysis (run ())));
    Alcotest.test_case "analysis JSON escapes output names" `Quick
      (fun () ->
         let name = "o\\1 \"q\"\tx" in
         let a =
           Crossbar.Margin.analyze (fig2_design ()) ~inputs:fig2_inputs
             ~reference:fig2_reference ~outputs:[ "f" ]
         in
         let a =
           {
             a with
             per_output =
               List.map
                 (fun om -> { om with Crossbar.Margin.om_output = name })
                 a.per_output;
           }
         in
         let json = Obs.Json.parse (Crossbar.Margin.json_of_analysis a) in
         match Obs.Json.member "outputs" json with
         | Some (Obs.Json.Arr [ out ]) ->
           check tb "name unchanged" true
             (Obs.Json.member "name" out = Some (Obs.Json.Str name))
         | _ -> Alcotest.fail "one output expected");
    Alcotest.test_case "wilson interval brackets the estimate" `Quick (fun () ->
        let low, high = Crossbar.Margin.wilson ~passes:57 ~trials:64 in
        let p = 57. /. 64. in
        check tb "bracket" true (0. < low && low < p && p < high && high < 1.);
        let low1, high1 = Crossbar.Margin.wilson ~passes:64 ~trials:64 in
        check tb "upper pinned at 1" true (high1 > 0.999999 && low1 < 1.);
        let low0, _ = Crossbar.Margin.wilson ~passes:0 ~trials:64 in
        check tb "lower pinned at 0" true (low0 >= 0. && low0 < 0.01));
    Alcotest.test_case "monte carlo is deterministic and seed-sensitive" `Quick
      (fun () ->
         let run seed =
           Crossbar.Margin.monte_carlo ~seed ~max_trials:40 ~min_trials:40
             ~spec:Crossbar.Variation.default_spec (fig2_design ())
             ~inputs:fig2_inputs ~reference:fig2_reference ~outputs:[ "f" ]
         in
         let a = Crossbar.Margin.json_of_mc (run 3)
         and b = Crossbar.Margin.json_of_mc (run 3)
         and c = Crossbar.Margin.json_of_mc (run 4) in
         check Alcotest.string "same seed" a b;
         check tb "different seed" true (a <> c));
    Alcotest.test_case "tight CI stops the sampler early" `Quick (fun () ->
        (* Nominal spec: every trial passes, the interval narrows fast. *)
        let mc =
          Crossbar.Margin.monte_carlo ~max_trials:500 ~min_trials:16
            ~ci_halfwidth:0.2 ~spec:Crossbar.Variation.nominal
            (fig2_design ()) ~inputs:fig2_inputs ~reference:fig2_reference
            ~outputs:[ "f" ]
        in
        check tb "stopped" true mc.mc_stopped_early;
        check tb "short" true (mc.mc_trials < 500);
        check (near 1e-12) "yield 1" 1. mc.mc_yield);
  ]

let permutation_tests =
  [
    Alcotest.test_case "permute preserves digital function" `Quick (fun () ->
        let d = fig2_design () in
        let p = Crossbar.Design.permute d ~row_perm:[| 2; 0; 1 |] ~col_perm:[| 1; 0 |] in
        for bits = 0 to 7 do
          let env v =
            match v with
            | "a" -> bits land 1 <> 0
            | "b" -> bits land 2 <> 0
            | _ -> bits land 4 <> 0
          in
          check tb "agree" true
            (Crossbar.Eval.evaluate d env = Crossbar.Eval.evaluate p env)
        done);
    Alcotest.test_case "non-permutation rejected" `Quick (fun () ->
        check tb "raises" true
          (match
             Crossbar.Design.permute (fig2_design ()) ~row_perm:[| 0; 0; 1 |]
               ~col_perm:[| 0; 1 |]
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "margin candidates are distinct valid placements" `Quick
      (fun () ->
         let d = fig2_design () in
         let cands = Compact.Place.margin_candidates d in
         check tb "identity first" true (fst (List.hd cands) = "identity");
         let labels = List.map fst cands in
         check ti "labels unique" (List.length labels)
           (List.length (List.sort_uniq compare labels));
         List.iter
           (fun (_, p) ->
              let d' = Compact.Place.apply_permutation p d in
              check tb "function preserved" true
                (Crossbar.Eval.evaluate d' (fun v -> v = "c")
                 = Crossbar.Eval.evaluate d (fun v -> v = "c")))
           cands);
    Alcotest.test_case "identity placement is the identity" `Quick (fun () ->
        let d = fig2_design () in
        let p = Compact.Place.identity d in
        check tb "rows" true (p.row_map = [| 0; 1; 2 |]);
        check tb "cols" true (p.col_map = [| 0; 1 |]));
  ]

(* The committed hardening example: two aligned outputs on a 4-input
   netlist, scored under resistive nanowires. The permutation stage finds
   a strictly better worst-corner margin than the as-synthesised design. *)
let harden_example () =
  Logic.Netlist.create ~name:"harden_ex" ~inputs:[ "a"; "b"; "c"; "d" ]
    ~outputs:[ "f"; "g" ]
    [ Logic.Netlist.n_expr "f" (Logic.Parse.expr "(a & b) | (c & d)");
      Logic.Netlist.n_expr "g" (Logic.Parse.expr "(a | c) & (b | d)") ]

let harden_spec =
  Crossbar.Variation.with_wire ~row:25. ~col:25. Crossbar.Variation.default_spec

let harden_tests =
  [
    Alcotest.test_case "harden beats the default design" `Quick (fun () ->
        let hopts =
          { Compact.Pipeline.default_harden_options with
            spec = harden_spec;
            mc_trials = 24 }
        in
        let r = Compact.Pipeline.harden ~hopts (harden_example ()) in
        let base =
          List.find
            (fun (c : Compact.Pipeline.candidate) -> c.cand_label = "base")
            r.candidates
        in
        check tb "strictly better" true (r.chosen.cand_worst > base.cand_worst);
        check tb "meets spec" true r.meets_spec;
        check tb "best first" true
          (List.for_all
             (fun (c : Compact.Pipeline.candidate) ->
                c.cand_worst <= r.chosen.cand_worst)
             r.candidates);
        (match r.mc with
         | None -> Alcotest.fail "mc expected"
         | Some mc -> check tb "functional yield" true (mc.mc_yield > 0.99));
        match r.hardened_report.analog with
        | None -> Alcotest.fail "analog summary expected"
        | Some a ->
          check (near 1e-12) "summary margin" r.chosen.cand_worst
            a.an_worst_margin;
          check ti "no unconverged" 0 a.an_unconverged);
    Alcotest.test_case "harden is deterministic" `Quick (fun () ->
        let hopts =
          { Compact.Pipeline.default_harden_options with
            spec = harden_spec;
            mc_trials = 16 }
        in
        let run () = Compact.Pipeline.harden ~hopts (harden_example ()) in
        let a = run () and b = run () in
        check Alcotest.string "same choice" a.chosen.cand_label b.chosen.cand_label;
        check (near 0.) "same margin" a.chosen.cand_worst b.chosen.cand_worst;
        match a.mc, b.mc with
        | Some ma, Some mb ->
          check Alcotest.string "same mc json"
            (Crossbar.Margin.json_of_mc ma) (Crossbar.Margin.json_of_mc mb)
        | _ -> Alcotest.fail "mc expected");
    Alcotest.test_case "an impossible spec degrades gracefully" `Quick
      (fun () ->
         let hopts =
           { Compact.Pipeline.default_harden_options with
             spec = harden_spec;
             margin_spec = 0.5;
             mc_trials = 0 }
         in
         let r = Compact.Pipeline.harden ~hopts (harden_example ()) in
         check tb "spec missed" true (not r.meets_spec);
         check tb "misses reported" true (r.failing_outputs <> []);
         List.iter
           (fun (_, m) -> check tb "margin below spec" true (m < 0.5))
           r.failing_outputs);
  ]

let () =
  Alcotest.run "variation"
    [
      "variation", variation_tests;
      "closed-form", closed_form_tests;
      "solver", solver_tests;
      "margin", margin_tests;
      "permutation", permutation_tests;
      "harden", harden_tests;
    ]
