(* Tests for the robustness layer: defect maps, defect-aware placement,
   the repair escalation ladder, reproducible yield analysis and the
   solver watchdog. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

let netlist_of_expr name s =
  let e = Logic.Parse.expr s in
  let inputs = Logic.Expr.vars e in
  Logic.Netlist.create ~name ~inputs ~outputs:[ "f" ]
    [ Logic.Netlist.n_expr "f" e ]

let synth_expr s =
  Compact.Pipeline.synthesize (netlist_of_expr "t" s)

(* ------------------------------------------------------------------ *)

let defect_map_tests =
  [
    Alcotest.test_case "text format round-trips" `Quick (fun () ->
        let m =
          Crossbar.Defect_map.create ~rows:6 ~cols:5 ~spare_rows:1
            ~spare_cols:2 ~broken_rows:[ 4 ] ~broken_cols:[ 0 ]
            [ Crossbar.Fault.Stuck_on (0, 3); Crossbar.Fault.Stuck_off (2, 2);
              Crossbar.Fault.Stuck_off (5, 1) ]
        in
        let m' = Crossbar.Defect_map.of_string (Crossbar.Defect_map.to_string m) in
        check ti "rows" 6 (Crossbar.Defect_map.rows m');
        check ti "cols" 5 (Crossbar.Defect_map.cols m');
        check ti "spare rows" 1 (Crossbar.Defect_map.spare_rows m');
        check ti "spare cols" 2 (Crossbar.Defect_map.spare_cols m');
        check tb "faults" true
          (Crossbar.Defect_map.faults m = Crossbar.Defect_map.faults m');
        check tb "broken rows" true
          (Crossbar.Defect_map.broken_rows m
           = Crossbar.Defect_map.broken_rows m');
        check tb "broken cols" true
          (Crossbar.Defect_map.broken_cols m
           = Crossbar.Defect_map.broken_cols m'));
    Alcotest.test_case "out-of-range fault raises" `Quick (fun () ->
        Alcotest.check_raises "row too large"
          (Invalid_argument "Defect_map.create: junction (4, 0) out of range")
          (fun () ->
             ignore
               (Crossbar.Defect_map.create ~rows:4 ~cols:4
                  [ Crossbar.Fault.Stuck_on (4, 0) ]));
        check tb "negative col" true
          (match
             Crossbar.Defect_map.create ~rows:4 ~cols:4
               [ Crossbar.Fault.Stuck_off (0, -1) ]
           with
           | _ -> false
           | exception Invalid_argument _ -> true);
        check tb "broken line out of range" true
          (match
             Crossbar.Defect_map.create ~rows:4 ~cols:4 ~broken_cols:[ 9 ] []
           with
           | _ -> false
           | exception Invalid_argument _ -> true));
    Alcotest.test_case "admits reflects the physics" `Quick (fun () ->
        let m =
          Crossbar.Defect_map.create ~rows:3 ~cols:3 ~broken_rows:[ 2 ]
            [ Crossbar.Fault.Stuck_on (0, 0); Crossbar.Fault.Stuck_off (1, 1) ]
        in
        check tb "stuck-on takes On" true
          (Crossbar.Defect_map.admits m ~row:0 ~col:0 Crossbar.Literal.On);
        check tb "stuck-on rejects a literal" false
          (Crossbar.Defect_map.admits m ~row:0 ~col:0
             (Crossbar.Literal.Pos "a"));
        check tb "stuck-off takes Off" true
          (Crossbar.Defect_map.admits m ~row:1 ~col:1 Crossbar.Literal.Off);
        check tb "stuck-off rejects On" false
          (Crossbar.Defect_map.admits m ~row:1 ~col:1 Crossbar.Literal.On);
        check tb "broken row only Off" false
          (Crossbar.Defect_map.admits m ~row:2 ~col:0 Crossbar.Literal.On));
  ]

(* ------------------------------------------------------------------ *)

let place_tests =
  [
    Alcotest.test_case "perfect map places identically" `Quick (fun () ->
        let r = synth_expr "(a & b) | (c & ~d)" in
        let d = r.Compact.Pipeline.design in
        let m =
          Crossbar.Defect_map.perfect ~rows:(Crossbar.Design.rows d)
            ~cols:(Crossbar.Design.cols d)
        in
        match Compact.Place.find m d with
        | None -> Alcotest.fail "no placement on a perfect array"
        | Some p ->
          Array.iteri
            (fun i r -> check ti (Printf.sprintf "row %d" i) i r)
            p.Compact.Place.row_map;
          Array.iteri
            (fun j c -> check ti (Printf.sprintf "col %d" j) j c)
            p.Compact.Place.col_map);
    Alcotest.test_case "spare lines stay unused on a perfect map" `Quick
      (fun () ->
         let r = synth_expr "(a & b) | (c & ~d)" in
         let d = r.Compact.Pipeline.design in
         let m =
           Crossbar.Defect_map.create
             ~rows:(Crossbar.Design.rows d + 2)
             ~cols:(Crossbar.Design.cols d + 2)
             ~spare_rows:2 ~spare_cols:2 []
         in
         match Compact.Place.find m d with
         | None -> Alcotest.fail "no placement"
         | Some p ->
           Array.iter
             (fun r ->
                check tb "row in primary region" true
                  (r < Crossbar.Design.rows d))
             p.Compact.Place.row_map;
           Array.iter
             (fun c ->
                check tb "col in primary region" true
                  (c < Crossbar.Design.cols d))
             p.Compact.Place.col_map);
    Alcotest.test_case "placement dodges a stuck-off junction" `Quick
      (fun () ->
         let r = synth_expr "(a & b) | (c & ~d)" in
         let d = r.Compact.Pipeline.design in
         (* Break a junction the identity placement programs. *)
         let target = ref None in
         Crossbar.Design.iter_programmed d (fun i j l ->
             if !target = None && not (Crossbar.Literal.equal l Crossbar.Literal.On)
             then target := Some (i, j));
         let i, j = Option.get !target in
         let m =
           Crossbar.Defect_map.create
             ~rows:(Crossbar.Design.rows d + 1)
             ~cols:(Crossbar.Design.cols d + 1)
             [ Crossbar.Fault.Stuck_off (i, j) ]
         in
         match Compact.Place.find m d with
         | None -> Alcotest.fail "no placement"
         | Some p ->
           check tb "respects the defect" true (Compact.Place.compatible m p d);
           let nl = netlist_of_expr "t" "(a & b) | (c & ~d)" in
           let phys = Compact.Place.apply m p d in
           check tb "physical design verifies" true
             (Crossbar.Verify.auto ~trials:256 phys
                ~inputs:nl.Logic.Netlist.inputs
                ~reference:(Logic.Netlist.eval_point nl)
                ~outputs:nl.Logic.Netlist.outputs
              = Crossbar.Verify.Ok));
  ]

(* ------------------------------------------------------------------ *)

let nl_cmp = netlist_of_expr "cmp" "((a & ~b) | (c & ~d & ~(a ^ b)))"

let repair_tests =
  [
    Alcotest.test_case "repair survives faults at programmed sites" `Quick
      (fun () ->
         let r = Compact.Pipeline.synthesize nl_cmp in
         let d = r.Compact.Pipeline.design in
         (* Stuck-off devices exactly where the design wants literals:
            the identity placement is infeasible by construction. *)
         let faults = ref [] in
         Crossbar.Design.iter_programmed d (fun i j l ->
             if
               List.length !faults < 2
               && not (Crossbar.Literal.equal l Crossbar.Literal.On)
             then faults := Crossbar.Fault.Stuck_off (i, j) :: !faults);
         let m =
           Crossbar.Defect_map.create
             ~rows:(Crossbar.Design.rows d + 1)
             ~cols:(Crossbar.Design.cols d + 1)
             ~spare_rows:1 ~spare_cols:1 !faults
         in
         let rep =
           Compact.Repair.run ~defects:m ~inputs:nl_cmp.Logic.Netlist.inputs
             ~outputs:nl_cmp.Logic.Netlist.outputs
             ~reference:(Logic.Netlist.eval_point nl_cmp) d
         in
         match rep.Compact.Repair.outcome with
         | Compact.Repair.Repaired { design; _ } ->
           check tb "every attempt that placed also verified" true
             (List.for_all
                (fun (a : Compact.Repair.attempt) ->
                   a.placed = a.verified || not a.verified)
                rep.attempts);
           check tb "repaired design verifies" true
             (Crossbar.Verify.auto ~trials:512 design
                ~inputs:nl_cmp.Logic.Netlist.inputs
                ~reference:(Logic.Netlist.eval_point nl_cmp)
                ~outputs:nl_cmp.Logic.Netlist.outputs
              = Crossbar.Verify.Ok)
         | Compact.Repair.Degraded _ -> Alcotest.fail "expected full repair"
         | Compact.Repair.Unplaceable msg -> Alcotest.fail msg);
    Alcotest.test_case "broken wordline consumes a spare" `Quick (fun () ->
        let r = synth_expr "(a & b) | (c & ~d)" in
        let d = r.Compact.Pipeline.design in
        let m =
          Crossbar.Defect_map.create
            ~rows:(Crossbar.Design.rows d + 1)
            ~cols:(Crossbar.Design.cols d)
            ~spare_rows:1 ~broken_rows:[ 0 ] []
        in
        let nl = netlist_of_expr "t" "(a & b) | (c & ~d)" in
        let rep =
          Compact.Repair.run ~defects:m ~inputs:nl.Logic.Netlist.inputs
            ~outputs:nl.Logic.Netlist.outputs
            ~reference:(Logic.Netlist.eval_point nl) d
        in
        match rep.Compact.Repair.outcome with
        | Compact.Repair.Repaired { strategy; _ } ->
          check Alcotest.string "strategy" "spares"
            (Compact.Repair.strategy_name strategy)
        | _ -> Alcotest.fail "expected repair via spares");
    Alcotest.test_case "hopeless array degrades explicitly" `Quick (fun () ->
        let r = synth_expr "(a & b) | (c & ~d)" in
        let d = r.Compact.Pipeline.design in
        let rows = Crossbar.Design.rows d and cols = Crossbar.Design.cols d in
        (* Every junction stuck off: nothing can conduct. *)
        let faults = ref [] in
        for i = 0 to rows - 1 do
          for j = 0 to cols - 1 do
            faults := Crossbar.Fault.Stuck_off (i, j) :: !faults
          done
        done;
        let m = Crossbar.Defect_map.create ~rows ~cols !faults in
        let nl = netlist_of_expr "t" "(a & b) | (c & ~d)" in
        let rep =
          Compact.Repair.run ~defects:m ~inputs:nl.Logic.Netlist.inputs
            ~outputs:nl.Logic.Netlist.outputs
            ~reference:(Logic.Netlist.eval_point nl) d
        in
        match rep.Compact.Repair.outcome with
        | Compact.Repair.Repaired _ -> Alcotest.fail "cannot be repaired"
        | Compact.Repair.Unplaceable _ -> ()
        | Compact.Repair.Degraded { failed; _ } ->
          check tb "lost outputs are reported" true (failed <> []));
    Alcotest.test_case "pipeline repair end-to-end" `Quick (fun () ->
        let nl = netlist_of_expr "t" "(a & b) | (c & ~d)" in
        let base = Compact.Pipeline.synthesize nl in
        let d = base.Compact.Pipeline.design in
        let m =
          Crossbar.Defect_map.create
            ~rows:(Crossbar.Design.rows d + 1)
            ~cols:(Crossbar.Design.cols d + 1)
            ~spare_rows:1 ~spare_cols:1
            [ Crossbar.Fault.Stuck_on (0, 1) ]
        in
        let rr = Compact.Pipeline.repair ~defects:m nl in
        check tb "attempt trail is recorded" true
          (rr.Compact.Pipeline.repair.Compact.Repair.attempts <> []);
        match rr.Compact.Pipeline.repair.Compact.Repair.outcome with
        | Compact.Repair.Repaired _ -> ()
        | _ -> Alcotest.fail "expected a repaired design");
  ]

(* ------------------------------------------------------------------ *)

(* Hand-built AND chain over 8 inputs: a single conducting path
   R0 -a1- C0 -a2- R1 -a3- C1 ... R4. Used to pin down exhaustive
   verification: a stuck-on device at the last link changes the function
   on exactly one of the 256 assignments, which sampling would miss. *)
let and_chain () =
  let var k = Printf.sprintf "a%d" k in
  let d =
    Crossbar.Design.build ~rows:5 ~cols:4 ~input:(Crossbar.Design.Row 0)
      ~outputs:[ "f", Crossbar.Design.Row 4 ]
      (fun set ->
         for k = 0 to 3 do
           set ~row:k ~col:k (Crossbar.Literal.Pos (var (2 * k + 1)));
           set ~row:(k + 1) ~col:k (Crossbar.Literal.Pos (var (2 * k + 2)))
         done)
  in
  let inputs = List.init 8 (fun k -> var (k + 1)) in
  let reference point = [| Array.for_all Fun.id point |] in
  d, inputs, reference

let yield_tests =
  [
    Alcotest.test_case "still_correct is exhaustive on small inputs" `Quick
      (fun () ->
         let d, inputs, reference = and_chain () in
         check tb "fault-free chain is correct" true
           (Crossbar.Fault.still_correct d ~inputs ~reference ~outputs:[ "f" ]);
         let faulty =
           Crossbar.Fault.inject d [ Crossbar.Fault.Stuck_on (4, 3) ]
         in
         check tb "single-minterm corruption is caught" false
           (Crossbar.Fault.still_correct faulty ~inputs ~reference
              ~outputs:[ "f" ]));
    Alcotest.test_case "yield is bit-for-bit reproducible per seed" `Quick
      (fun () ->
         let d, inputs, reference = and_chain () in
         let run seed =
           Crossbar.Fault.yield ~seed ~trials:40 ~rate:0.15 d ~inputs
             ~reference ~outputs:[ "f" ]
         in
         let a = run 11 and b = run 11 in
         check ti "survivors agree" a.Crossbar.Fault.survivors
           b.Crossbar.Fault.survivors;
         check (Alcotest.float 1e-12) "mean faults agree"
           a.Crossbar.Fault.mean_faults b.Crossbar.Fault.mean_faults;
         let c = run 12 in
         check tb "another seed is a different sample" true
           (a.Crossbar.Fault.survivors <> c.Crossbar.Fault.survivors
            || a.Crossbar.Fault.mean_faults <> c.Crossbar.Fault.mean_faults));
  ]

(* ------------------------------------------------------------------ *)
(* Parser fuzzing: the defect-map text parser must answer every input —
   truncated, mutated, or hand-mangled — with either a map or a
   structured [Parse_error], never an escaping exception. *)

let fuzz_base_text =
  Crossbar.Defect_map.to_string
    (Crossbar.Defect_map.create ~rows:8 ~cols:7 ~spare_rows:2 ~spare_cols:1
       ~broken_rows:[ 3; 5 ] ~broken_cols:[ 6 ]
       [ Crossbar.Fault.Stuck_on (0, 1); Crossbar.Fault.Stuck_off (4, 2);
         Crossbar.Fault.Stuck_on (7, 0) ])

let parse_outcome s =
  match Crossbar.Defect_map.of_string s with
  | (_ : Crossbar.Defect_map.t) -> `Parsed
  | exception Crossbar.Defect_map.Parse_error _ -> `Structured
  | exception e -> `Escaped e

let parse_error_line s =
  match Crossbar.Defect_map.of_string s with
  | (_ : Crossbar.Defect_map.t) -> Alcotest.fail "expected a parse error"
  | exception Crossbar.Defect_map.Parse_error { line; _ } -> line

let parser_fuzz_tests =
  [
    Alcotest.test_case "every prefix truncation is handled" `Quick (fun () ->
        for len = 0 to String.length fuzz_base_text do
          match parse_outcome (String.sub fuzz_base_text 0 len) with
          | `Parsed | `Structured -> ()
          | `Escaped e ->
            Alcotest.failf "truncation at %d escaped with %s" len
              (Printexc.to_string e)
        done);
    Alcotest.test_case "seeded single-byte mutations are handled" `Quick
      (fun () ->
         let rng = Random.State.make [| 0xf22 |] in
         let alphabet = " \n\t#-_09azAZ\000\255" in
         for k = 1 to 500 do
           let b = Bytes.of_string fuzz_base_text in
           let pos = Random.State.int rng (Bytes.length b) in
           let c = alphabet.[Random.State.int rng (String.length alphabet)] in
           Bytes.set b pos c;
           match parse_outcome (Bytes.to_string b) with
           | `Parsed | `Structured -> ()
           | `Escaped e ->
             Alcotest.failf "mutation %d (byte %d <- %C) escaped with %s" k
               pos c (Printexc.to_string e)
         done);
    Alcotest.test_case "seeded line shuffles and deletions are handled"
      `Quick (fun () ->
          let lines = String.split_on_char '\n' fuzz_base_text in
          let rng = Random.State.make [| 0x11e |] in
          for k = 1 to 200 do
            let kept =
              List.filter (fun _ -> Random.State.bool rng) lines
              |> List.map (fun l ->
                  if Random.State.int rng 4 = 0 then l ^ " 1" else l)
            in
            let doc = String.concat "\n" kept in
            match parse_outcome doc with
            | `Parsed | `Structured -> ()
            | `Escaped e ->
              Alcotest.failf "shuffle %d escaped with %s" k
                (Printexc.to_string e)
          done);
    Alcotest.test_case "malformed maps report the offending line" `Quick
      (fun () ->
         check ti "non-integer operand" 2
           (parse_error_line "array 4 4\nstuck_on 1 x\n");
         check ti "duplicate array line" 3
           (parse_error_line "array 4 4\n# comment\narray 2 2\n");
         check ti "unknown directive" 1 (parse_error_line "arrray 4 4\n");
         check ti "missing array line" 0 (parse_error_line "stuck_on 1 1\n");
         check ti "out-of-range fault is semantic (line 0)" 0
           (parse_error_line "array 4 4\nstuck_on 9 9\n");
         check ti "empty array is semantic (line 0)"
           0
           (parse_error_line "array 0 4\n"));
    Alcotest.test_case "round-trip still parses after the fuzz plumbing"
      `Quick (fun () ->
          match parse_outcome fuzz_base_text with
          | `Parsed -> ()
          | `Structured -> Alcotest.fail "valid map rejected"
          | `Escaped e -> Alcotest.failf "escaped: %s" (Printexc.to_string e));
  ]

(* ------------------------------------------------------------------ *)

let watchdog_tests =
  [
    Alcotest.test_case "expired budget falls back to oct-greedy" `Slow
      (fun () ->
         (* >160 graph nodes so Auto starts on the heuristic, and a zero
            budget so its (non-optimal) incumbent is rejected. *)
         let e = Circuits.Suite.find "dec" in
         let options =
           { Compact.Pipeline.default_options with time_limit = 0. }
         in
         let r = Compact.Pipeline.synthesize ~options (e.generate ()) in
         let report = r.Compact.Pipeline.report in
         check tb "retried at least once" true (report.solver_retries >= 1);
         check Alcotest.string "landed on the terminal rung" "oct-greedy"
           (List.nth report.solver_path
              (List.length report.solver_path - 1));
         check ti "path length matches retries"
           (report.solver_retries + 1)
           (List.length report.solver_path));
    Alcotest.test_case "MIP-primary ladder walks every rung" `Quick
      (fun () ->
         (* <=160 graph nodes so Auto starts on the MIP; a zero budget
            rejects both timed rungs, and Auto's path lists the bare
            rung names. *)
         List.iter
           (fun name ->
              let nl = (Circuits.Suite.find name).generate () in
              List.iter
                (fun jobs ->
                   let options =
                     { Compact.Pipeline.default_options with
                       time_limit = 0.;
                       jobs }
                   in
                   let report =
                     (Compact.Pipeline.synthesize ~options nl)
                       .Compact.Pipeline.report
                   in
                   let label = Printf.sprintf "%s jobs=%d" name jobs in
                   check
                     Alcotest.(list string)
                     (label ^ " path")
                     [ "mip"; "heuristic"; "oct-greedy" ]
                     report.solver_path;
                   check ti (label ^ " retries") 2 report.solver_retries)
                [ 1; 4 ])
           [ "ctrl"; "cavlc" ]);
    Alcotest.test_case "generous budget keeps the first rung" `Quick
      (fun () ->
         let r = synth_expr "(a & b) | c" in
         check ti "no retries" 0 r.Compact.Pipeline.report.solver_retries;
         check ti "single rung" 1
           (List.length r.Compact.Pipeline.report.solver_path));
  ]

let () =
  Alcotest.run "fault"
    [
      "defect_map", defect_map_tests;
      "parser_fuzz", parser_fuzz_tests;
      "place", place_tests;
      "repair", repair_tests;
      "yield", yield_tests;
      "watchdog", watchdog_tests;
    ]
