(* Tests for the crossbar model: literals, designs, digital sneak-path
   evaluation, functional verification and the analog solver. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

(* The paper's Fig 2 crossbar for f = (a & b) | c, built by hand:
     row 0 (output) - col 0: !a   col 1: a
     row 1          - col 0: !b   col 1: 1 (fuse)
     row 2 (input)  - col 0: c    col 1: b
   [fig2_on ~rows ~cols] places it in the corner of a larger array, and
   [then_] makes further writes after the figure's. *)
let fig2_on ?(then_ = fun _ -> ()) ~rows ~cols () =
  Crossbar.Design.build ~rows ~cols ~input:(Crossbar.Design.Row 2)
    ~outputs:[ "f", Crossbar.Design.Row 0 ]
    (fun set ->
       set ~row:0 ~col:0 (Crossbar.Literal.Neg "a");
       set ~row:0 ~col:1 (Crossbar.Literal.Pos "a");
       set ~row:1 ~col:0 (Crossbar.Literal.Neg "b");
       set ~row:1 ~col:1 Crossbar.Literal.On;
       set ~row:2 ~col:0 (Crossbar.Literal.Pos "c");
       set ~row:2 ~col:1 (Crossbar.Literal.Pos "b");
       then_ set)

let fig2_design ?then_ () = fig2_on ?then_ ~rows:3 ~cols:2 ()

let fig2_reference =
  lazy
    (Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
       [ "f", Logic.Parse.expr "(a & b) | c" ])

let fig2_point_reference point = [| (point.(0) && point.(1)) || point.(2) |]

(* The one-assignment BFS that [Crossbar.Eval]'s lane evaluator
   replaced, kept verbatim as its oracle. *)
module Bfs = struct
  open Crossbar

  type adjacency = {
    row_adj : (int * Literal.t) list array;  (* per row: (col, literal) *)
    col_adj : (int * Literal.t) list array;
  }

  let adjacency d =
    let row_adj = Array.make (Design.rows d) [] in
    let col_adj = Array.make (Design.cols d) [] in
    Design.iter_programmed d (fun i j l ->
        row_adj.(i) <- (j, l) :: row_adj.(i);
        col_adj.(j) <- (i, l) :: col_adj.(j));
    { row_adj; col_adj }

  let reach adj d env =
    let rows = Design.rows d and cols = Design.cols d in
    let row_reached = Array.make rows false in
    let col_reached = Array.make cols false in
    let queue = Queue.create () in
    (match Design.input d with
     | Design.Row i ->
       row_reached.(i) <- true;
       Queue.add (`Row i) queue
     | Design.Col j ->
       col_reached.(j) <- true;
       Queue.add (`Col j) queue);
    while not (Queue.is_empty queue) do
      match Queue.pop queue with
      | `Row i ->
        List.iter
          (fun (j, l) ->
             if (not col_reached.(j)) && Literal.conducts l env then begin
               col_reached.(j) <- true;
               Queue.add (`Col j) queue
             end)
          adj.row_adj.(i)
      | `Col j ->
        List.iter
          (fun (i, l) ->
             if (not row_reached.(i)) && Literal.conducts l env then begin
               row_reached.(i) <- true;
               Queue.add (`Row i) queue
             end)
          adj.col_adj.(j)
    done;
    row_reached, col_reached

  let outputs_of_reach d (row_reached, col_reached) =
    List.map
      (fun (o, w) ->
         ( o,
           match w with
           | Design.Row i -> row_reached.(i)
           | Design.Col j -> col_reached.(j) ))
      (Design.outputs d)

  let evaluator d =
    let adj = adjacency d in
    fun env -> outputs_of_reach d (reach adj d env)
end

(* [Verify]'s one-BFS-per-assignment scan and the checks built on it,
   kept verbatim as the reference for the lane-parallel scan.  [Eval]
   names the BFS oracle above. *)
module Reference_verify = struct
  open Crossbar
  open Verify
  module Eval = Bfs

  exception Found of counterexample

  type points = Rows | Draws of Random.State.t * int

  let scan d ~inputs ~reference ~outputs points mismatch =
    let n = List.length inputs in
    let in_index = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace in_index v i) inputs;
    let out_index = Hashtbl.create 16 in
    List.iteri (fun i o -> Hashtbl.replace out_index o i) outputs;
    let point = Array.make n false in
    let env v =
      match Hashtbl.find_opt in_index v with
      | Some i -> point.(i)
      | None ->
        invalid_arg
          (Printf.sprintf "Verify: design variable %s not a reference input" v)
    in
    let eval = Eval.evaluator d in
    let check () =
      let expected = reference point in
      List.iter
        (fun (o, got) ->
           let e =
             match Hashtbl.find_opt out_index o with
             | Some i -> expected.(i)
             | None -> invalid_arg (Printf.sprintf "Verify: unknown output %s" o)
           in
           if got <> e then
             mismatch
               {
                 assignment = List.mapi (fun i v -> v, point.(i)) inputs;
                 output = o;
                 expected = e;
                 got;
               })
        (eval env)
    in
    match points with
    | Rows ->
      for row = 0 to (1 lsl n) - 1 do
        for i = 0 to n - 1 do
          point.(i) <- row land (1 lsl i) <> 0
        done;
        check ()
      done
    | Draws (rng, trials) ->
      for _ = 1 to trials do
        for i = 0 to n - 1 do
          point.(i) <- Random.State.bool rng
        done;
        check ()
      done

  let first_failure d ~inputs ~reference ~outputs points =
    match
      scan d ~inputs ~reference ~outputs points (fun cex -> raise (Found cex))
    with
    | () -> Ok
    | exception Found cex -> Failed cex

  let auto_points ~seed ~trials salt inputs =
    if List.length inputs <= exhaustive_threshold then Rows
    else Draws (Rng.state seed salt, trials)

  let random ?(seed = Rng.default_seed) ~trials d ~inputs ~reference ~outputs =
    first_failure d ~inputs ~reference ~outputs
      (Draws (Rng.state seed `Verify_random, trials))

  let auto ?(seed = Rng.default_seed) ~trials d ~inputs ~reference ~outputs =
    first_failure d ~inputs ~reference ~outputs
      (auto_points ~seed ~trials `Verify_random inputs)

  let per_output ?(seed = Rng.default_seed) ?(trials = 256) d ~inputs ~reference
      ~outputs =
    let failures = Hashtbl.create 8 in
    scan d ~inputs ~reference ~outputs
      (auto_points ~seed ~trials `Verify_per_output inputs)
      (fun cex ->
         if not (Hashtbl.mem failures cex.output) then
           Hashtbl.replace failures cex.output cex);
    List.map (fun (o, _) -> o, Hashtbl.find_opt failures o) (Design.outputs d)
end

let literal_tests =
  [
    Alcotest.test_case "conducts" `Quick (fun () ->
        let env v = v = "a" in
        check tb "On" true (Crossbar.Literal.conducts Crossbar.Literal.On env);
        check tb "Off" false (Crossbar.Literal.conducts Crossbar.Literal.Off env);
        check tb "Pos a" true (Crossbar.Literal.conducts (Crossbar.Literal.Pos "a") env);
        check tb "Neg a" false (Crossbar.Literal.conducts (Crossbar.Literal.Neg "a") env);
        check tb "Pos b" false (Crossbar.Literal.conducts (Crossbar.Literal.Pos "b") env));
    Alcotest.test_case "negate" `Quick (fun () ->
        check tb "neg pos" true
          (Crossbar.Literal.negate (Crossbar.Literal.Pos "x")
           = Crossbar.Literal.Neg "x");
        check tb "neg on" true
          (Crossbar.Literal.negate Crossbar.Literal.On = Crossbar.Literal.Off));
    Alcotest.test_case "to_string" `Quick (fun () ->
        check Alcotest.string "neg" "!a"
          (Crossbar.Literal.to_string (Crossbar.Literal.Neg "a"));
        check Alcotest.string "on" "1"
          (Crossbar.Literal.to_string Crossbar.Literal.On));
  ]

let design_tests =
  [
    Alcotest.test_case "metrics" `Quick (fun () ->
        let d = fig2_design () in
        check ti "rows" 3 (Crossbar.Design.rows d);
        check ti "cols" 2 (Crossbar.Design.cols d);
        check ti "S" 5 (Crossbar.Design.semiperimeter d);
        check ti "D" 3 (Crossbar.Design.max_dimension d);
        check ti "area" 6 (Crossbar.Design.area d);
        check ti "programmed" 6 (Crossbar.Design.num_programmed d);
        check ti "literals" 5 (Crossbar.Design.num_literal_junctions d);
        check ti "fuses" 1 (Crossbar.Design.num_on_junctions d);
        check ti "delay" 4 (Crossbar.Design.delay_steps d));
    Alcotest.test_case "unset junction reads Off" `Quick (fun () ->
        let d =
          Crossbar.Design.build ~rows:2 ~cols:2 ~input:(Crossbar.Design.Row 1)
            ~outputs:[] (fun _ -> ())
        in
        check tb "off" true
          (Crossbar.Design.get d ~row:0 ~col:0 = Crossbar.Literal.Off));
    Alcotest.test_case "setting Off erases" `Quick (fun () ->
        let d =
          fig2_design
            ~then_:(fun set -> set ~row:1 ~col:1 Crossbar.Literal.Off)
            ()
        in
        check ti "programmed" 5 (Crossbar.Design.num_programmed d));
    Alcotest.test_case "variables sorted" `Quick (fun () ->
        check Alcotest.(list string) "vars" [ "a"; "b"; "c" ]
          (Crossbar.Design.variables (fig2_design ())));
    Alcotest.test_case "out-of-range ports rejected" `Quick (fun () ->
        check tb "raises" true
          (match
             Crossbar.Design.build ~rows:2 ~cols:2
               ~input:(Crossbar.Design.Row 5) ~outputs:[] (fun _ -> ())
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "iter_programmed row-major and complete" `Quick
      (fun () ->
         let d = fig2_design () in
         let cells = ref [] in
         Crossbar.Design.iter_programmed d (fun i j _ -> cells := (i, j) :: !cells);
         let cells = List.rev !cells in
         check ti "count" 6 (List.length cells);
         check tb "sorted" true (List.sort compare cells = cells));
    Alcotest.test_case "iter_programmed sees every set; copy, permute fresh"
      `Quick (fun () ->
          let module D = Crossbar.Design in
          let module L = Crossbar.Literal in
          let cells d =
            let acc = ref [] in
            D.iter_programmed d (fun i j l -> acc := (i, j, L.to_string l) :: !acc);
            List.rev !acc
          in
          let expect what want d =
            check Alcotest.(list (triple int int string)) what want (cells d)
          in
          (* The design after the first [k] of the writes. *)
          let writes =
            [ 2, 1, L.Pos "a"; 0, 2, L.On; 1, 0, L.Neg "b"; 0, 2, L.Off;
              2, 1, L.Neg "a" ]
          in
          let after k =
            D.build ~rows:3 ~cols:3 ~input:(D.Row 0) ~outputs:[] (fun set ->
                List.iteri
                  (fun i (row, col, l) -> if i < k then set ~row ~col l)
                  writes)
          in
          expect "first order" [ 0, 2, "1"; 2, 1, "a" ] (after 2);
          expect "a new junction" [ 0, 2, "1"; 1, 0, "!b"; 2, 1, "a" ] (after 3);
          expect "an erased one" [ 1, 0, "!b"; 2, 1, "a" ] (after 4);
          let d = after 5 in
          expect "a rewritten one" [ 1, 0, "!b"; 2, 1, "!a" ] d;
          let c = Design_edit.edit d (fun set -> set ~row:0 ~col:0 L.On) in
          expect "the copy" [ 0, 0, "1"; 1, 0, "!b"; 2, 1, "!a" ] c;
          expect "its original" [ 1, 0, "!b"; 2, 1, "!a" ] d;
          let p = D.permute d ~row_perm:[| 2; 1; 0 |] ~col_perm:[| 1; 0; 2 |] in
          expect "the permuted design" [ 0, 0, "!a"; 1, 1, "!b" ] p);
  ]

let eval_tests =
  [
    Alcotest.test_case "fig2 crossbar computes (a & b) | c" `Quick (fun () ->
        match
          Crossbar.Verify.against_table (fig2_design ())
            ~reference:(Lazy.force fig2_reference)
        with
        | Crossbar.Verify.Ok -> ()
        | Crossbar.Verify.Failed cex ->
          Alcotest.failf "%a" Crossbar.Verify.pp_counterexample cex);
    Alcotest.test_case "reachable_wires from the input" `Quick (fun () ->
        let d = fig2_design () in
        (* a=1 b=1 c=0: path IN(row2) -col1(b)- row1 -fuse- ... *)
        let rows, cols = Crossbar.Eval.reachable_wires d (fun v -> v <> "c") in
        check tb "row2" true rows.(2);
        check tb "col1 via b" true cols.(1);
        check tb "row0 via a" true rows.(0);
        (* every junction on column 0 (!a, !b, c) is off here *)
        check tb "col0 unreached" false cols.(0));
    Alcotest.test_case "no stray conduction" `Quick (fun () ->
        let d = fig2_design () in
        (* a=1, b=0, c=0: f must be 0. *)
        let out = Crossbar.Eval.evaluate d (fun v -> v = "a") in
        check tb "f" false (List.assoc "f" out));
    Alcotest.test_case "column ports work" `Quick (fun () ->
        (* 1x1 crossbar: input row 0, output col 0, junction x. *)
        let d =
          Crossbar.Design.build ~rows:1 ~cols:1 ~input:(Crossbar.Design.Row 0)
            ~outputs:[ "f", Crossbar.Design.Col 0 ]
            (fun set -> set ~row:0 ~col:0 (Crossbar.Literal.Pos "x"))
        in
        check tb "on" true
          (List.assoc "f" (Crossbar.Eval.evaluate d (fun _ -> true)));
        check tb "off" false
          (List.assoc "f" (Crossbar.Eval.evaluate d (fun _ -> false))));
    Alcotest.test_case "one sweep's lanes agree with evaluate" `Quick
      (fun () ->
         (* Lane [bits] holds assignment a = bit 0, b = bit 1, c = bit 2. *)
         let d = fig2_design () in
         let index = function "a" -> 0 | "b" -> 1 | _ -> 2 in
         let t = Crossbar.Eval.compile d ~index in
         let words =
           Array.init 3 (fun k ->
               let w = ref 0 in
               for bits = 0 to 7 do
                 if bits land (1 lsl k) <> 0 then w := !w lor (1 lsl bits)
               done;
               !w)
         in
         let reach = Crossbar.Eval.sweep t words ~batch:8 in
         let f = reach.(Crossbar.Eval.wire t (Crossbar.Design.Row 0)) in
         check ti "no bits past the batch" 0 (f lsr 8);
         for bits = 0 to 7 do
           let env v = bits land (1 lsl index v) <> 0 in
           check tb "agree"
             (List.assoc "f" (Crossbar.Eval.evaluate d env))
             ((f lsr bits) land 1 = 1)
         done);
    Alcotest.test_case "evaluate_point positional" `Quick (fun () ->
        let d = fig2_design () in
        let out =
          Crossbar.Eval.evaluate_point d ~input_names:[ "a"; "b"; "c" ]
            [| true; true; false |]
        in
        check tb "f" true out.(0));
  ]

let verify_tests =
  [
    Alcotest.test_case "a corrupted design is caught" `Quick (fun () ->
        (* Break it: stuck-on junction creates a sneak path. *)
        let d =
          fig2_design
            ~then_:(fun set -> set ~row:2 ~col:0 Crossbar.Literal.On)
            ()
        in
        (match
           Crossbar.Verify.against_table d ~reference:(Lazy.force fig2_reference)
         with
         | Crossbar.Verify.Ok -> Alcotest.fail "should have failed"
         | Crossbar.Verify.Failed cex ->
           check Alcotest.string "output" "f" cex.output;
           check tb "direction" true (cex.got && not cex.expected)));
    Alcotest.test_case "random verification catches the same bug" `Quick
      (fun () ->
         let d =
           fig2_design
             ~then_:(fun set -> set ~row:2 ~col:0 Crossbar.Literal.On)
             ()
         in
         let reference point =
           [| (point.(0) && point.(1)) || point.(2) |]
         in
         match
           Crossbar.Verify.random ~trials:200 d ~inputs:[ "a"; "b"; "c" ]
             ~reference ~outputs:[ "f" ]
         with
         | Crossbar.Verify.Ok -> Alcotest.fail "should have failed"
         | Crossbar.Verify.Failed _ -> ());
    Alcotest.test_case "foreign design variable rejected" `Quick (fun () ->
        let d =
          fig2_design
            ~then_:(fun set -> set ~row:0 ~col:0 (Crossbar.Literal.Pos "zz"))
            ()
        in
        check tb "raises" true
          (match
             Crossbar.Verify.against_table d
               ~reference:(Lazy.force fig2_reference)
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "unreachable foreign variable rejected up front" `Quick
      (fun () ->
         (* A z junction on a row and a column that nothing else touches:
            no assignment ever reaches it, and the check still refuses
            the design before the first assignment. *)
         let d =
           fig2_on
             ~then_:(fun set -> set ~row:3 ~col:2 (Crossbar.Literal.Pos "z"))
             ~rows:4 ~cols:3 ()
         in
         let refused =
           Invalid_argument "Verify: design variable z not a reference input"
         in
         Alcotest.check_raises "against_table" refused (fun () ->
             ignore
               (Crossbar.Verify.against_table d
                  ~reference:(Lazy.force fig2_reference)));
         Alcotest.check_raises "random" refused (fun () ->
             ignore
               (Crossbar.Verify.random ~trials:64 d ~inputs:[ "a"; "b"; "c" ]
                  ~reference:fig2_point_reference ~outputs:[ "f" ])));
    Alcotest.test_case "unknown output rejected with no points to check"
      `Quick (fun () ->
        Alcotest.check_raises "random ~trials:0"
          (Invalid_argument "Verify: unknown output f") (fun () ->
            ignore
              (Crossbar.Verify.random ~trials:0 (fig2_design ())
                 ~inputs:[ "a"; "b"; "c" ] ~reference:fig2_point_reference
                 ~outputs:[ "g" ])));
  ]

let analog_tests =
  [
    Alcotest.test_case "single conducting path divides correctly" `Quick
      (fun () ->
         (* IN(row1) -On- col0 -On- row0(out): 2 memristors in series with
            the sensing resistor: v_out = Rs / (Rs + 2*Ron). *)
         let d =
           Crossbar.Design.build ~rows:2 ~cols:1
             ~input:(Crossbar.Design.Row 1)
             ~outputs:[ "f", Crossbar.Design.Row 0 ]
             (fun set ->
                set ~row:1 ~col:0 Crossbar.Literal.On;
                set ~row:0 ~col:0 Crossbar.Literal.On)
         in
         let p = Crossbar.Analog.default_params in
         let sol = Crossbar.Analog.solve ~params:p d (fun _ -> false) in
         let expected = p.r_sense /. (p.r_sense +. (2. *. p.r_on)) in
         check (Alcotest.float 1e-3) "v_out" expected sol.v_rows.(0));
    Alcotest.test_case "blocked path stays near ground" `Quick (fun () ->
        let d =
          Crossbar.Design.build ~rows:2 ~cols:1
            ~input:(Crossbar.Design.Row 1)
            ~outputs:[ "f", Crossbar.Design.Row 0 ]
            (fun set ->
               set ~row:1 ~col:0 Crossbar.Literal.On;
               set ~row:0 ~col:0 (Crossbar.Literal.Pos "x"))
        in
        let outputs =
          Crossbar.Analog.read_outputs d (fun _ -> false)
        in
        (match outputs with
         | [ ("f", logic, v) ] ->
           check tb "logic 0" false logic;
           check tb "tiny voltage" true (v < 0.001)
         | _ -> Alcotest.fail "one output expected"));
    Alcotest.test_case "fig2 analog agrees with digital everywhere" `Quick
      (fun () ->
         check tb "agrees" true
           (Crossbar.Analog.agrees_with_digital ~trials:32 (fig2_design ())));
    Alcotest.test_case "solver converges" `Quick (fun () ->
        let sol = Crossbar.Analog.solve (fig2_design ()) (fun _ -> true) in
        check tb "residual" true (sol.residual < 1e-8));
  ]

(* Random designs synthesised from random expressions must keep analog and
   digital evaluation in agreement. *)
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
            2, map2 (fun a b -> Logic.Expr.or_ [ a; b ]) (self (n / 2)) (self (n / 2)) ])

let lane_vars = [| "a"; "b"; "c"; "d" |]
let lane_index = function "a" -> 0 | "b" -> 1 | "c" -> 2 | _ -> 3

(* A random design — 1–8 rows and 1–8 columns, ports on either kind of
   wire, every junction On, Off, Pos or Neg over four variables — and a
   batch of 1–63 assignments. *)
let lane_case_gen =
  let open QCheck2.Gen in
  let* rows = int_range 1 8 in
  let* cols = int_range 1 8 in
  let port =
    oneof
      [
        map (fun i -> Crossbar.Design.Row i) (int_bound (rows - 1));
        map (fun j -> Crossbar.Design.Col j) (int_bound (cols - 1));
      ]
  in
  let literal =
    oneof
      [
        pure Crossbar.Literal.Off;
        pure Crossbar.Literal.On;
        map (fun v -> Crossbar.Literal.Pos v) (oneofa lane_vars);
        map (fun v -> Crossbar.Literal.Neg v) (oneofa lane_vars);
      ]
  in
  let* input = port in
  let* outputs = list_size (int_range 1 3) port in
  let* cells = array_repeat (rows * cols) literal in
  let* batch = int_range 1 Crossbar.Eval.lanes in
  let+ assignments = array_repeat batch (array_repeat 4 bool) in
  let d =
    Crossbar.Design.build ~rows ~cols ~input
      ~outputs:(List.mapi (fun k w -> Printf.sprintf "o%d" k, w) outputs)
      (fun set ->
         Array.iteri (fun k l -> set ~row:(k / cols) ~col:(k mod cols) l) cells)
  in
  d, assignments

let lane_tests =
  [
    qcheck_case "every lane equals the BFS on its assignment" ~count:300
      lane_case_gen
      (fun (d, assignments) ->
         let batch = Array.length assignments in
         let t = Crossbar.Eval.compile d ~index:lane_index in
         let words =
           Array.init 4 (fun k ->
               let w = ref 0 in
               Array.iteri
                 (fun l a -> if a.(k) then w := !w lor (1 lsl l))
                 assignments;
               !w)
         in
         let reach = Crossbar.Eval.sweep t words ~batch in
         let adj = Bfs.adjacency d in
         let bit w l = (reach.(Crossbar.Eval.wire t w) lsr l) land 1 = 1 in
         let lane_agrees l =
           let rows, cols =
             Bfs.reach adj d (fun v -> assignments.(l).(lane_index v))
           in
           Array.for_all Fun.id
             (Array.mapi (fun i r -> r = bit (Crossbar.Design.Row i) l) rows)
           && Array.for_all Fun.id
             (Array.mapi (fun j c -> c = bit (Crossbar.Design.Col j) l) cols)
         in
         List.for_all lane_agrees (List.init batch Fun.id)
         && (batch = Crossbar.Eval.lanes
             || Array.for_all (fun w -> w lsr batch = 0) reach));
  ]

(* Mutation battery: synthesize a Table-I circuit, drop or negate one
   programmed junction at a time over a fixed sample, and check that the
   lane-parallel checks return exactly what the reference scan returns.
   ctrl, dec and cavlc are checked on every row; priority and router on
   random draws.  Each circuit names its sample size: the reference
   scan's BFS is what the battery's time goes on, most on router. *)
let battery_circuits =
  [ "ctrl", 20; "dec", 20; "cavlc", 20; "priority", 20; "router", 10 ]

let mutants name d ~count =
  let cells = ref [] in
  Crossbar.Design.iter_programmed d (fun i j l -> cells := (i, j, l) :: !cells);
  let cells = Array.of_list !cells in
  let n = Array.length cells in
  let rng = Crossbar.Rng.state Crossbar.Rng.default_seed ("mutants", name) in
  List.init (min count n) (fun k ->
      (* A partial Fisher-Yates shuffle: [count] distinct junctions. *)
      let pick = k + Random.State.int rng (n - k) in
      let c = cells.(pick) in
      cells.(pick) <- cells.(k);
      cells.(k) <- c;
      let i, j, l = c in
      Design_edit.edit d (fun set ->
          set ~row:i ~col:j
            (if k mod 2 = 0 then Crossbar.Literal.Off
             else Crossbar.Literal.negate l)))

let outcome =
  Alcotest.testable
    (fun ppf -> function
       | Crossbar.Verify.Ok -> Format.pp_print_string ppf "Ok"
       | Crossbar.Verify.Failed cex ->
         Format.fprintf ppf "Failed (%a)" Crossbar.Verify.pp_counterexample cex)
    ( = )

let per_output_verdicts =
  Alcotest.(list (pair string (option (of_pp Crossbar.Verify.pp_counterexample))))

let mutation_tests =
  [
    Alcotest.test_case "mutants: same verdicts and counterexamples" `Quick
      (fun () ->
         let caught = ref 0 and sampled_miss = ref 0 and failing = ref 0 in
         List.iter
           (fun (name, count) ->
              let nl = (Circuits.Suite.find name).Circuits.Suite.generate () in
              let d = (Compact.Pipeline.synthesize nl).Compact.Pipeline.design in
              let inputs = nl.Logic.Netlist.inputs in
              let outputs = nl.Logic.Netlist.outputs in
              let reference = Logic.Netlist.eval_point nl in
              List.iteri
                (fun k m ->
                   let what = Printf.sprintf "%s mutant %d" name k in
                   let auto =
                     Crossbar.Verify.auto ~trials:64 m ~inputs ~reference ~outputs
                   in
                   check outcome (what ^ " auto")
                     (Reference_verify.auto ~trials:64 m ~inputs ~reference
                        ~outputs)
                     auto;
                   check per_output_verdicts (what ^ " per_output")
                     (Reference_verify.per_output ~trials:64 m ~inputs
                        ~reference ~outputs)
                     (Crossbar.Verify.per_output ~trials:64 m ~inputs
                        ~reference ~outputs);
                   if auto <> Crossbar.Verify.Ok then incr failing;
                   if List.length inputs <= Crossbar.Verify.exhaustive_threshold
                   then begin
                     let random =
                       Crossbar.Verify.random ~trials:64 m ~inputs ~reference
                         ~outputs
                     in
                     check outcome (what ^ " random")
                       (Reference_verify.random ~trials:64 m ~inputs ~reference
                          ~outputs)
                       random;
                     if auto <> Crossbar.Verify.Ok then begin
                       incr caught;
                       if random = Crossbar.Verify.Ok then incr sampled_miss
                     end
                   end)
                (mutants name d ~count))
           battery_circuits;
         check tb "some mutants fail" true (!failing > 0);
         Printf.printf
           "ctrl, dec, cavlc: %d mutants caught on every row, %d of them \
            missed by 64 random draws\n"
           !caught !sampled_miss);
  ]

let property_tests =
  [
    qcheck_case "synthesised designs verify exhaustively" ~count:40 expr_gen
      (fun f ->
         let r = Compact.Pipeline.synthesize_expr ~name:"prop" f in
         let inputs = [ "a"; "b"; "c" ] in
         let reference =
           Logic.Truth_table.of_exprs ~inputs [ "prop_out", f ]
         in
         Crossbar.Verify.against_table r.design ~reference = Crossbar.Verify.Ok);
    qcheck_case "analog agrees with digital on synthesised designs"
      ~count:15 expr_gen
      (fun f ->
         let r = Compact.Pipeline.synthesize_expr ~name:"prop" f in
         Crossbar.Analog.agrees_with_digital ~trials:8 r.design);
    qcheck_case "nominal deviations leave the analog/digital agreement"
      ~count:10 expr_gen
      (fun f ->
         let r = Compact.Pipeline.synthesize_expr ~name:"prop" f in
         let deviations =
           Crossbar.Analog.ideal
             ~rows:(Crossbar.Design.rows r.design)
             ~cols:(Crossbar.Design.cols r.design)
         in
         Crossbar.Analog.agrees_with_digital ~deviations ~trials:8 r.design);
  ]

let fault_tests =
  [
    Alcotest.test_case "inject does not mutate the original" `Quick
      (fun () ->
         let d = fig2_design () in
         let before = Crossbar.Design.num_programmed d in
         let _faulty =
           Crossbar.Fault.inject d [ Crossbar.Fault.Stuck_off (0, 0) ]
         in
         check ti "unchanged" before (Crossbar.Design.num_programmed d));
    Alcotest.test_case "stuck-off removes the device" `Quick (fun () ->
        let d = fig2_design () in
        let faulty =
          Crossbar.Fault.inject d [ Crossbar.Fault.Stuck_off (2, 0) ]
        in
        check tb "off" true
          (Crossbar.Design.get faulty ~row:2 ~col:0 = Crossbar.Literal.Off));
    Alcotest.test_case "stuck-off on the c junction kills c-paths" `Quick
      (fun () ->
         (* f = (a & b) | c with the c junction dead behaves as a & b. *)
         let faulty =
           Crossbar.Fault.inject (fig2_design ())
             [ Crossbar.Fault.Stuck_off (2, 0) ]
         in
         let env v = v = "c" in
         check tb "c alone no longer conducts" false
           (List.assoc "f" (Crossbar.Eval.evaluate faulty env));
         let env v = v = "a" || v = "b" in
         check tb "a & b still works" true
           (List.assoc "f" (Crossbar.Eval.evaluate faulty env)));
    Alcotest.test_case "rate zero injects nothing" `Quick (fun () ->
        check ti "none" 0
          (List.length
             (Crossbar.Fault.random_faults ~rate:0. (fig2_design ()))));
    Alcotest.test_case "rate one faults every programmed device" `Quick
      (fun () ->
         let d = fig2_design () in
         let programmed_faults =
           List.filter
             (fun f ->
                match f with
                | Crossbar.Fault.Stuck_on (r, c)
                | Crossbar.Fault.Stuck_off (r, c) ->
                  not
                    (Crossbar.Literal.equal
                       (Crossbar.Design.get d ~row:r ~col:c)
                       Crossbar.Literal.Off))
             (Crossbar.Fault.random_faults ~rate:1. d)
         in
         check ti "all sites" (Crossbar.Design.num_programmed d)
           (List.length programmed_faults));
    Alcotest.test_case "bad rate rejected" `Quick (fun () ->
        check tb "raises" true
          (match Crossbar.Fault.random_faults ~rate:2. (fig2_design ()) with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "yield is 1 at rate 0 and degrades" `Quick (fun () ->
        let d = fig2_design () in
        let inputs = [ "a"; "b"; "c" ] in
        let reference point = [| (point.(0) && point.(1)) || point.(2) |] in
        let at rate =
          (Crossbar.Fault.yield ~trials:30 ~rate d ~inputs ~reference
             ~outputs:[ "f" ])
            .yield
        in
        check (Alcotest.float 1e-9) "perfect" 1. (at 0.);
        check tb "degrades" true (at 0.5 < 1.));
    Alcotest.test_case "yield is deterministic under a seed" `Quick (fun () ->
        let d = fig2_design () in
        let inputs = [ "a"; "b"; "c" ] in
        let reference point = [| (point.(0) && point.(1)) || point.(2) |] in
        let run seed =
          (Crossbar.Fault.yield ~seed ~trials:40 ~rate:0.25 d ~inputs
             ~reference ~outputs:[ "f" ])
            .yield
        in
        check (Alcotest.float 0.) "same seed" (run 9) (run 9);
        check tb "degraded" true (run 9 < 1.));
  ]

let () =
  Alcotest.run "crossbar"
    [
      "literal", literal_tests;
      "design", design_tests;
      "eval", eval_tests;
      "verify", verify_tests;
      "analog", analog_tests;
      "fault", fault_tests;
      "properties", property_tests;
      "lanes", lane_tests;
      "mutants", mutation_tests;
    ]
