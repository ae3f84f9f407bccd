(* Tests for the baselines: the staircase prior-work mapper [16] and the
   MAGIC/CONTRA cost model [34]. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

let e = Logic.Parse.expr

let expr_gen =
  let open QCheck2.Gen in
  let var_names = [ "a"; "b"; "c" ] in
  sized @@ fix (fun self n ->
      if n <= 0 then map Logic.Expr.var (oneofl var_names)
      else
        frequency
          [ 1, map Logic.Expr.var (oneofl var_names);
            2, map Logic.Expr.not_ (self (n - 1));
            2, map2 (fun a b -> Logic.Expr.and_ [ a; b ]) (self (n / 2)) (self (n / 2));
            2, map2 (fun a b -> Logic.Expr.or_ [ a; b ]) (self (n / 2)) (self (n / 2));
            1, map2 Logic.Expr.xor (self (n / 2)) (self (n / 2)) ])

let netlist_of_expr f =
  let inputs = Logic.Expr.vars f in
  Logic.Netlist.create ~name:"t" ~inputs ~outputs:[ "f" ]
    [ Logic.Netlist.n_expr "f" f ]

(* ------------------------------------------------------------------ *)

let staircase_tests =
  [
    Alcotest.test_case "fig2: semiperimeter 2n - 1" `Quick (fun () ->
        let nl = netlist_of_expr (e "(a & b) | c") in
        let r = Baseline.Staircase.synthesize nl in
        (* 4 graph nodes: 4 wordlines + 3 bitlines. *)
        check ti "rows" 4 (Crossbar.Design.rows r.merged);
        check ti "cols" 3 (Crossbar.Design.cols r.merged);
        check ti "S" 7 (Crossbar.Design.semiperimeter r.merged);
        check ti "nodes" 4 r.total_bdd_nodes);
    Alcotest.test_case "fig2 staircase verifies" `Quick (fun () ->
        let nl = netlist_of_expr (e "(a & b) | c") in
        let r = Baseline.Staircase.synthesize nl in
        check tb "ok" true
          (Crossbar.Verify.against_table r.merged
             ~reference:(Logic.Netlist.to_truth_table nl)
           = Crossbar.Verify.Ok));
    Alcotest.test_case "multi-output staircase verifies" `Quick (fun () ->
        let nl = Circuits.Arith.ripple_adder ~bits:2 () in
        let r = Baseline.Staircase.synthesize nl in
        check ti "one block per output" (Logic.Netlist.num_outputs nl)
          (List.length r.designs);
        check tb "ok" true
          (Crossbar.Verify.against_table r.merged
             ~reference:(Logic.Netlist.to_truth_table nl)
           = Crossbar.Verify.Ok));
    Alcotest.test_case "every node gets a diagonal fuse" `Quick (fun () ->
        let nl = netlist_of_expr (e "(a & b) | c") in
        let r = Baseline.Staircase.synthesize nl in
        (* All non-terminal nodes are fused: n - 1 fuses. *)
        check ti "fuses" 3 (Crossbar.Design.num_on_junctions r.merged));
    Alcotest.test_case "COMPACT beats the staircase on semiperimeter" `Quick
      (fun () ->
         let nl = Circuits.Control.opcode_decoder () in
         let stair = Baseline.Staircase.synthesize nl in
         let compact = Compact.Pipeline.synthesize nl in
         check tb "smaller" true
           (Crossbar.Design.semiperimeter compact.design
            < Crossbar.Design.semiperimeter stair.merged));
    qcheck_case "staircase always verifies" ~count:40 expr_gen (fun f ->
        let nl = netlist_of_expr f in
        let r = Baseline.Staircase.synthesize nl in
        Crossbar.Verify.against_table r.merged
          ~reference:(Logic.Netlist.to_truth_table nl)
        = Crossbar.Verify.Ok);
  ]

(* ------------------------------------------------------------------ *)

let magic_tests =
  [
    Alcotest.test_case "nor lowering preserves semantics" `Quick (fun () ->
        let nl = Circuits.Arith.ripple_adder ~bits:2 () in
        let nig = Baseline.Magic.of_netlist nl in
        let tt = Logic.Netlist.to_truth_table nl in
        let inputs = nl.inputs in
        let n = List.length inputs in
        for bits = 0 to (1 lsl n) - 1 do
          let point = Array.init n (fun i -> bits land (1 lsl i) <> 0) in
          let env v =
            let rec idx i rest =
              match rest with
              | [] -> assert false
              | x :: tl -> if String.equal x v then i else idx (i + 1) tl
            in
            point.(idx 0 inputs)
          in
          let got = Baseline.Magic.eval nig env in
          let expected = Logic.Truth_table.eval tt point in
          List.iteri
            (fun i (_, value) ->
               check tb (Printf.sprintf "bits=%d out=%d" bits i)
                 expected.(i) value)
            got
        done);
    Alcotest.test_case "structural hashing shares subterms" `Quick (fun () ->
        let nl =
          Logic.Netlist.create ~name:"shared" ~inputs:[ "a"; "b" ]
            ~outputs:[ "f"; "g" ]
            [
              Logic.Netlist.n_and "f" [ "a"; "b" ];
              Logic.Netlist.n_and "g" [ "a"; "b" ];
            ]
        in
        let nig = Baseline.Magic.of_netlist nl in
        (* Both outputs must resolve to the same op. *)
        (match nig.outputs with
         | [ (_, i); (_, j) ] -> check ti "shared op" i j
         | _ -> Alcotest.fail "expected two outputs"));
    Alcotest.test_case "depth and gate counts positive" `Quick (fun () ->
        let nig =
          Baseline.Magic.of_netlist (Circuits.Control.opcode_decoder ())
        in
        check tb "gates" true (Baseline.Magic.num_gates nig > 0);
        check tb "depth" true (Baseline.Magic.depth nig > 0);
        check tb "depth <= gates" true
          (Baseline.Magic.depth nig <= Baseline.Magic.num_gates nig));
    Alcotest.test_case "levels are monotone along dependencies" `Quick
      (fun () ->
         let nig =
           Baseline.Magic.of_netlist (Circuits.Arith.comparator ~bits:3 ())
         in
         let levels = Baseline.Magic.levels nig in
         Array.iteri
           (fun i op ->
              let ops =
                match op with
                | Baseline.Magic.Input _ -> []
                | Baseline.Magic.Not j -> [ j ]
                | Baseline.Magic.Nor js -> js
              in
              List.iter
                (fun j -> check tb "increasing" true (levels.(j) < levels.(i)))
                ops)
           nig.ops);
    qcheck_case "magic evaluation equals expression evaluation" expr_gen
      (fun f ->
         let nl = netlist_of_expr f in
         let nig = Baseline.Magic.of_netlist nl in
         let vars = Logic.Expr.vars f in
         List.for_all
           (fun bits ->
              let env v =
                let rec idx i rest =
                  match rest with
                  | [] -> false
                  | x :: tl ->
                    if String.equal x v then bits land (1 lsl i) <> 0
                    else idx (i + 1) tl
                in
                idx 0 vars
              in
              List.assoc "f" (Baseline.Magic.eval nig env)
              = Logic.Expr.eval env f)
           (List.init (1 lsl List.length vars) (fun b -> b)));
  ]

(* ------------------------------------------------------------------ *)

let contra_tests =
  [
    Alcotest.test_case "cost fields are consistent" `Quick (fun () ->
        let cost = Baseline.Contra.estimate (Circuits.Control.opcode_decoder ()) in
        check tb "luts" true (cost.num_luts > 0);
        check tb "levels" true
          (cost.num_levels > 0 && cost.num_levels <= cost.num_luts);
        check ti "power decomposition" cost.power_ops
          (cost.input_ops + cost.nor_ops + cost.copy_ops);
        check tb "delay" true (cost.delay_steps > 0));
    Alcotest.test_case "deterministic" `Quick (fun () ->
        let nl = Circuits.Control.cavlc_decoder () in
        check tb "equal" true
          (Baseline.Contra.estimate nl = Baseline.Contra.estimate nl));
    Alcotest.test_case "bigger circuit costs more" `Quick (fun () ->
        let small = Baseline.Contra.estimate (Circuits.Arith.ripple_adder ~bits:2 ()) in
        let large = Baseline.Contra.estimate (Circuits.Arith.ripple_adder ~bits:8 ()) in
        check tb "power" true (large.power_ops > small.power_ops);
        check tb "delay" true (large.delay_steps > small.delay_steps));
    Alcotest.test_case "wider LUTs reduce the LUT count" `Quick (fun () ->
        let nl = Circuits.Arith.comparator ~bits:6 () in
        let k2 =
          Baseline.Contra.estimate
            ~params:{ Baseline.Contra.default_params with k = 2 } nl
        in
        let k6 =
          Baseline.Contra.estimate
            ~params:{ Baseline.Contra.default_params with k = 6 } nl
        in
        check tb "fewer luts" true (k6.num_luts <= k2.num_luts));
  ]

let () =
  Alcotest.run "baseline"
    [
      "staircase", staircase_tests;
      "magic", magic_tests;
      "contra", contra_tests;
    ]
