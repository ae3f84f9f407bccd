(* Tests for the logic front-end: expressions, parser, cubes, truth
   tables, netlists, BLIF and PLA readers/writers. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Expression helpers and generators *)

let e = Logic.Parse.expr


(* Random expressions over variables x0..x3. *)
let expr_gen =
  let open QCheck2.Gen in
  let var_names = [ "x0"; "x1"; "x2"; "x3" ] in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> Logic.Expr.var v) (oneofl var_names);
            oneofl [ Logic.Expr.tru; Logic.Expr.fls ] ]
      else
        frequency
          [ 1, map (fun v -> Logic.Expr.var v) (oneofl var_names);
            2, map Logic.Expr.not_ (self (n - 1));
            2, map2 (fun a b -> Logic.Expr.and_ [ a; b ])
                 (self (n / 2)) (self (n / 2));
            2, map2 (fun a b -> Logic.Expr.or_ [ a; b ])
                 (self (n / 2)) (self (n / 2));
            1, map2 Logic.Expr.xor (self (n / 2)) (self (n / 2)) ])

let env_gen =
  QCheck2.Gen.(
    map (fun bits v ->
        match v with
        | "x0" -> bits land 1 <> 0
        | "x1" -> bits land 2 <> 0
        | "x2" -> bits land 4 <> 0
        | "x3" -> bits land 8 <> 0
        | _ -> false)
      (int_bound 15))

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

(* ------------------------------------------------------------------ *)

let expr_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check tb "tru" true (Logic.Expr.eval (fun _ -> false) Logic.Expr.tru);
        check tb "fls" false (Logic.Expr.eval (fun _ -> true) Logic.Expr.fls));
    Alcotest.test_case "and flattening" `Quick (fun () ->
        let a = Logic.Expr.var "a" and b = Logic.Expr.var "b" in
        let c = Logic.Expr.var "c" in
        match Logic.Expr.and_ [ Logic.Expr.and_ [ a; b ]; c ] with
        | Logic.Expr.And [ _; _; _ ] -> ()
        | other ->
          Alcotest.failf "expected flat 3-ary And, got %s"
            (Logic.Expr.to_string other));
    Alcotest.test_case "and short-circuits on false" `Quick (fun () ->
        check tb "fls" true
          (Logic.Expr.equal
             (Logic.Expr.and_ [ Logic.Expr.var "a"; Logic.Expr.fls ])
             Logic.Expr.fls));
    Alcotest.test_case "or drops false units" `Quick (fun () ->
        check tb "var" true
          (Logic.Expr.equal
             (Logic.Expr.or_ [ Logic.Expr.fls; Logic.Expr.var "a" ])
             (Logic.Expr.var "a")));
    Alcotest.test_case "double negation removed" `Quick (fun () ->
        let a = Logic.Expr.var "a" in
        check tb "a" true
          (Logic.Expr.equal (Logic.Expr.not_ (Logic.Expr.not_ a)) a));
    Alcotest.test_case "xor constant folding" `Quick (fun () ->
        let a = Logic.Expr.var "a" in
        check tb "xor 0 a = a" true
          (Logic.Expr.equal (Logic.Expr.xor Logic.Expr.fls a) a);
        check tb "xor 1 a = !a" true
          (Logic.Expr.equal (Logic.Expr.xor Logic.Expr.tru a)
             (Logic.Expr.not_ a)));
    Alcotest.test_case "vars sorted and unique" `Quick (fun () ->
        check
          Alcotest.(list string)
          "vars" [ "a"; "b"; "c" ]
          (Logic.Expr.vars (e "c & a | b & a")));
    Alcotest.test_case "size and depth" `Quick (fun () ->
        let f = e "!a & b" in
        check ti "size" 4 (Logic.Expr.size f);
        check ti "depth" 3 (Logic.Expr.depth f));
    Alcotest.test_case "eval examples" `Quick (fun () ->
        let f = e "(a & b) | c" in
        check tb "110" true
          (Logic.Expr.eval_list [ "a", true; "b", true; "c", false ] f);
        check tb "100" false
          (Logic.Expr.eval_list [ "a", true; "b", false; "c", false ] f));
    Alcotest.test_case "cofactor fixes a variable" `Quick (fun () ->
        let f = e "(a & b) | c" in
        let f1 = Logic.Expr.cofactor "a" true f in
        check tb "sem" true (Logic.Expr.semantically_equal f1 (e "b | c")));
    Alcotest.test_case "substitute" `Quick (fun () ->
        let f = e "a & b" in
        let g =
          Logic.Expr.substitute
            (fun v -> if v = "a" then Some (e "c | d") else None)
            f
        in
        check tb "sem" true (Logic.Expr.semantically_equal g (e "(c | d) & b")));
    Alcotest.test_case "semantic equality: de Morgan" `Quick (fun () ->
        check tb "sem" true
          (Logic.Expr.semantically_equal (e "!(a & b)") (e "!a | !b")));
    Alcotest.test_case "semantic equality: xor expansion" `Quick (fun () ->
        check tb "sem" true
          (Logic.Expr.semantically_equal (e "a ^ b")
             (e "(a & !b) | (!a & b)")));
    Alcotest.test_case "semantic inequality" `Quick (fun () ->
        check tb "sem" false
          (Logic.Expr.semantically_equal (e "a | b") (e "a & b")));
    Alcotest.test_case "ite" `Quick (fun () ->
        let f = Logic.Expr.ite (e "c") (e "a") (e "b") in
        check tb "sem" true
          (Logic.Expr.semantically_equal f (e "(c & a) | (!c & b)")));
    qcheck_case "not involutive (semantics)"
      QCheck2.Gen.(pair expr_gen env_gen)
      (fun (f, env) ->
         Logic.Expr.eval env (Logic.Expr.not_ f) = not (Logic.Expr.eval env f));
    qcheck_case "cofactor agrees with eval"
      QCheck2.Gen.(pair expr_gen env_gen)
      (fun (f, env) ->
         let v = "x0" in
         let cof = Logic.Expr.cofactor v (env v) f in
         Logic.Expr.eval env cof = Logic.Expr.eval env f);
    qcheck_case "printer/parser round trip"
      QCheck2.Gen.(pair expr_gen env_gen)
      (fun (f, env) ->
         let f' = Logic.Parse.expr (Logic.Expr.to_string f) in
         Logic.Expr.eval env f' = Logic.Expr.eval env f);
  ]

let parse_tests =
  [
    Alcotest.test_case "precedence: or < and" `Quick (fun () ->
        check tb "sem" true
          (Logic.Expr.semantically_equal (e "a | b & c") (e "a | (b & c)")));
    Alcotest.test_case "precedence: xor between or and and" `Quick (fun () ->
        check tb "sem" true
          (Logic.Expr.semantically_equal (e "a ^ b & c | d")
             (e "(a ^ (b & c)) | d")));
    Alcotest.test_case "alternative operator spellings" `Quick (fun () ->
        check tb "sem" true
          (Logic.Expr.semantically_equal (e "a + b * ~c") (e "a | (b & !c)")));
    Alcotest.test_case "constants" `Quick (fun () ->
        check tb "sem" true (Logic.Expr.semantically_equal (e "a & 1") (e "a"));
        check tb "sem" true (Logic.Expr.semantically_equal (e "a & 0") (e "0")));
    Alcotest.test_case "identifiers with digits and brackets" `Quick (fun () ->
        match e "data[3] & x_1" with
        | Logic.Expr.And [ Logic.Expr.Var "data[3]"; Logic.Expr.Var "x_1" ] ->
          ()
        | other -> Alcotest.failf "parsed %s" (Logic.Expr.to_string other));
    Alcotest.test_case "error: trailing garbage" `Quick (fun () ->
        check tb "none" true (Logic.Parse.expr_opt "a b" = None));
    Alcotest.test_case "error: unbalanced parenthesis" `Quick (fun () ->
        check tb "none" true (Logic.Parse.expr_opt "(a & b" = None));
    Alcotest.test_case "error: empty input" `Quick (fun () ->
        check tb "none" true (Logic.Parse.expr_opt "" = None));
    Alcotest.test_case "error: stray operator" `Quick (fun () ->
        check tb "none" true (Logic.Parse.expr_opt "& a" = None));
  ]

(* ------------------------------------------------------------------ *)

let cube_tests =
  [
    Alcotest.test_case "string round trip" `Quick (fun () ->
        check ts "same" "1-0" (Logic.Cube.to_string (Logic.Cube.of_string "1-0")));
    Alcotest.test_case "of_string rejects junk" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Cube.of_string: bad character '2'") (fun () ->
            ignore (Logic.Cube.of_string "12")));
    Alcotest.test_case "matches" `Quick (fun () ->
        let c = Logic.Cube.of_string "1-0" in
        check tb "110" true (Logic.Cube.matches c [| true; true; false |]);
        check tb "100" true (Logic.Cube.matches c [| true; false; false |]);
        check tb "111" false (Logic.Cube.matches c [| true; true; true |]));
    Alcotest.test_case "minterm count is 2^dashes" `Quick (fun () ->
        let c = Logic.Cube.of_string "1--0" in
        check ti "count" 4 (List.length (Logic.Cube.minterms c 4)));
    Alcotest.test_case "cover_to_expr matches cover_eval" `Quick (fun () ->
        let cubes = List.map Logic.Cube.of_string [ "11-"; "--1" ] in
        let names = [| "a"; "b"; "c" |] in
        let f = Logic.Cube.cover_to_expr ~names cubes in
        for m = 0 to 7 do
          let point = Array.init 3 (fun i -> m land (1 lsl i) <> 0) in
          let env v = point.(if v = "a" then 0 else if v = "b" then 1 else 2) in
          check tb
            (Printf.sprintf "m=%d" m)
            (Logic.Cube.cover_eval cubes point)
            (Logic.Expr.eval env f)
        done);
    Alcotest.test_case "empty cover is false" `Quick (fun () ->
        check tb "false" true
          (Logic.Expr.equal
             (Logic.Cube.cover_to_expr ~names:[| "a" |] [])
             Logic.Expr.fls));
  ]

(* ------------------------------------------------------------------ *)

let tt_tests =
  [
    Alcotest.test_case "of_exprs and value" `Quick (fun () ->
        let tt =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b" ]
            [ "and", e "a & b"; "or", e "a | b" ]
        in
        check ti "inputs" 2 (Logic.Truth_table.num_inputs tt);
        check tb "and(3)" true (Logic.Truth_table.value tt ~output:0 3);
        check tb "and(1)" false (Logic.Truth_table.value tt ~output:0 1);
        check tb "or(1)" true (Logic.Truth_table.value tt ~output:1 1));
    Alcotest.test_case "count_ones" `Quick (fun () ->
        let tt =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ "f", e "a ^ b ^ c" ]
        in
        check ti "parity has 4 ones" 4 (Logic.Truth_table.count_ones tt ~output:0));
    Alcotest.test_case "eval round trip" `Quick (fun () ->
        let tt =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b" ] [ "f", e "a & !b" ]
        in
        check tb "10" true (Logic.Truth_table.eval tt [| true; false |]).(0);
        check tb "11" false (Logic.Truth_table.eval tt [| true; true |]).(0));
    Alcotest.test_case "equal is structural on bits" `Quick (fun () ->
        let t1 =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b" ] [ "f", e "a & b" ]
        in
        let t2 =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b" ] [ "f", e "!(!a | !b)" ]
        in
        check tb "equal" true (Logic.Truth_table.equal t1 t2));
    Alcotest.test_case "rejects foreign variables" `Quick (fun () ->
        check tb "raises" true
          (match
             Logic.Truth_table.of_exprs ~inputs:[ "a" ] [ "f", e "a & b" ]
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "input limit enforced" `Quick (fun () ->
        let too_many = List.init 21 (fun i -> Printf.sprintf "v%d" i) in
        check tb "raises" true
          (match
             Logic.Truth_table.create ~inputs:too_many ~outputs:[ "f" ]
               (fun _ -> [| false |])
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* ------------------------------------------------------------------ *)

let sample_netlist () =
  Logic.Netlist.create ~name:"sample" ~inputs:[ "a"; "b"; "c" ]
    ~outputs:[ "f"; "g" ]
    [
      Logic.Netlist.n_and "t" [ "a"; "b" ];
      Logic.Netlist.n_expr "f" (e "t | c");
      Logic.Netlist.n_xor "g" "t" "c";
    ]

let netlist_tests =
  [
    Alcotest.test_case "eval" `Quick (fun () ->
        let nl = sample_netlist () in
        let out = Logic.Netlist.eval nl (fun v -> v = "a" || v = "b") in
        check tb "f" true (List.assoc "f" out);
        check tb "g" true (List.assoc "g" out));
    Alcotest.test_case "output_exprs semantics" `Quick (fun () ->
        let nl = sample_netlist () in
        let f = List.assoc "f" (Logic.Netlist.output_exprs nl) in
        check tb "sem" true
          (Logic.Expr.semantically_equal f (e "(a & b) | c")));
    Alcotest.test_case "to_truth_table" `Quick (fun () ->
        let nl = sample_netlist () in
        let tt = Logic.Netlist.to_truth_table nl in
        let expected =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ "f", e "(a & b) | c"; "g", e "(a & b) ^ c" ]
        in
        check tb "equal" true (Logic.Truth_table.equal tt expected));
    Alcotest.test_case "of_expr names its output f when f is free" `Quick
      (fun () ->
         let nl = Logic.Netlist.of_expr ~name:"x" (e "(a & b) | c") in
         check (Alcotest.list Alcotest.string) "outputs" [ "f" ]
           nl.Logic.Netlist.outputs;
         check (Alcotest.list Alcotest.string) "inputs" [ "a"; "b"; "c" ]
           nl.Logic.Netlist.inputs);
    Alcotest.test_case "of_expr over a variable named f" `Quick (fun () ->
        let nl = Logic.Netlist.of_expr ~name:"x" (e "f & a") in
        check (Alcotest.list Alcotest.string) "f taken" [ "f0" ]
          nl.Logic.Netlist.outputs;
        check tb "computes f & a" true
          (Logic.Expr.semantically_equal
             (List.assoc "f0" (Logic.Netlist.output_exprs nl))
             (e "f & a"));
        check (Alcotest.list Alcotest.string) "f and f0 taken" [ "f1" ]
          (Logic.Netlist.of_expr ~name:"x" (e "f & f0")).Logic.Netlist.outputs);
    Alcotest.test_case "rejects undefined wires" `Quick (fun () ->
        check tb "raises" true
          (match
             Logic.Netlist.create ~name:"bad" ~inputs:[ "a" ] ~outputs:[ "f" ]
               [ Logic.Netlist.n_and "f" [ "a"; "ghost" ] ]
           with
           | exception Logic.Netlist.Ill_formed _ -> true
           | _ -> false));
    Alcotest.test_case "rejects undriven output" `Quick (fun () ->
        check tb "raises" true
          (match
             Logic.Netlist.create ~name:"bad" ~inputs:[ "a" ] ~outputs:[ "f" ] []
           with
           | exception Logic.Netlist.Ill_formed _ -> true
           | _ -> false));
    Alcotest.test_case "rejects redefined wire" `Quick (fun () ->
        check tb "raises" true
          (match
             Logic.Netlist.create ~name:"bad" ~inputs:[ "a" ] ~outputs:[ "t" ]
               [ Logic.Netlist.n_buf "t" "a"; Logic.Netlist.n_not "t" "a" ]
           with
           | exception Logic.Netlist.Ill_formed _ -> true
           | _ -> false));
    Alcotest.test_case "output can be a primary input" `Quick (fun () ->
        let nl =
          Logic.Netlist.create ~name:"wire" ~inputs:[ "a" ] ~outputs:[ "a" ] []
        in
        check tb "id" true
          (List.assoc "a" (Logic.Netlist.eval nl (fun _ -> true))));
    Alcotest.test_case "rename prefixes everything" `Quick (fun () ->
        let nl = Logic.Netlist.rename (sample_netlist ()) ~prefix:"p_" in
        check tb "inputs" true (List.mem "p_a" nl.inputs);
        check tb "outputs" true (List.mem "p_f" nl.outputs);
        let out = Logic.Netlist.eval nl (fun _ -> true) in
        check tb "f" true (List.assoc "p_f" out));
    Alcotest.test_case "literal_count" `Quick (fun () ->
        check tb "positive" true (Logic.Netlist.literal_count (sample_netlist ()) > 0));
  ]

(* ------------------------------------------------------------------ *)

let blif_sample =
  {|# a tiny model
.model tiny
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names t c g   # xor via 0-rows
00 0
11 0
.end|}

let blif_tests =
  [
    Alcotest.test_case "parse sample" `Quick (fun () ->
        let nl = Logic.Blif.parse_string blif_sample in
        check ts "name" "tiny" nl.name;
        check ti "inputs" 3 (Logic.Netlist.num_inputs nl);
        let tt = Logic.Netlist.to_truth_table nl in
        let expected =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ "f", e "(a & b) | c"; "g", e "!(a & b) & c | (a & b) & !c" ]
        in
        check tb "semantics" true (Logic.Truth_table.equal tt expected));
    Alcotest.test_case "print/parse round trip" `Quick (fun () ->
        let nl = sample_netlist () in
        let nl' = Logic.Blif.parse_string (Logic.Blif.to_string nl) in
        check tb "equal tables" true
          (Logic.Truth_table.equal
             (Logic.Netlist.to_truth_table nl)
             (Logic.Netlist.to_truth_table nl')));
    Alcotest.test_case "out-of-order names blocks are sorted" `Quick (fun () ->
        let text =
          ".model ooo\n.inputs a\n.outputs f\n.names t f\n1 1\n.names a t\n0 1\n.end\n"
        in
        let nl = Logic.Blif.parse_string text in
        check tb "f = !a" true
          (List.assoc "f" (Logic.Netlist.eval nl (fun _ -> false))));
    Alcotest.test_case "constant node" `Quick (fun () ->
        let text = ".model k\n.inputs a\n.outputs f\n.names f\n1\n.end\n" in
        let nl = Logic.Blif.parse_string text in
        check tb "f = 1" true
          (List.assoc "f" (Logic.Netlist.eval nl (fun _ -> false))));
    Alcotest.test_case "combinational cycle rejected" `Quick (fun () ->
        let text =
          ".model cyc\n.inputs a\n.outputs f\n.names g f\n1 1\n.names f g\n1 1\n.end\n"
        in
        check tb "raises" true
          (match Logic.Blif.parse_string text with
           | exception Logic.Netlist.Ill_formed _ -> true
           | _ -> false));
    Alcotest.test_case "latch rejected with line number" `Quick (fun () ->
        let text = ".model l\n.inputs a\n.outputs f\n.latch a f\n.end\n" in
        check tb "raises" true
          (match Logic.Blif.parse_string text with
           | exception Logic.Blif.Parse_error { line = 4; _ } -> true
           | _ -> false));
    Alcotest.test_case "continuation lines" `Quick (fun () ->
        let text =
          ".model c\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
        in
        let nl = Logic.Blif.parse_string text in
        check ti "inputs" 2 (Logic.Netlist.num_inputs nl));
  ]

(* ------------------------------------------------------------------ *)

let pla_sample = {|.i 3
.o 2
.ilb a b c
.ob f g
.p 3
11- 10
--1 10
1-1 01
.e
|}

let pla_tests =
  [
    Alcotest.test_case "parse sample" `Quick (fun () ->
        let pla = Logic.Pla.parse_string pla_sample in
        check ti "inputs" 3 pla.num_inputs;
        check ti "products" 3 (List.length pla.products));
    Alcotest.test_case "to_netlist semantics" `Quick (fun () ->
        let nl = Logic.Pla.to_netlist (Logic.Pla.parse_string pla_sample) in
        let tt = Logic.Netlist.to_truth_table nl in
        let expected =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ "f", e "(a & b) | c"; "g", e "a & c" ]
        in
        check tb "semantics" true (Logic.Truth_table.equal tt expected));
    Alcotest.test_case "print/parse round trip" `Quick (fun () ->
        let pla = Logic.Pla.parse_string pla_sample in
        let pla' = Logic.Pla.parse_string (Logic.Pla.to_string pla) in
        check tb "same products" true (pla.products = pla'.products));
    Alcotest.test_case "of_truth_table round trip" `Quick (fun () ->
        let tt =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b" ] [ "f", e "a ^ b" ]
        in
        let nl = Logic.Pla.to_netlist (Logic.Pla.of_truth_table tt) in
        check tb "equal" true
          (Logic.Truth_table.equal tt (Logic.Netlist.to_truth_table nl)));
    Alcotest.test_case "default labels" `Quick (fun () ->
        let pla = Logic.Pla.parse_string ".i 2\n.o 1\n11 1\n.e\n" in
        check Alcotest.(list string) "ilb" [ "x0"; "x1" ] pla.input_labels);
    Alcotest.test_case "width mismatch rejected" `Quick (fun () ->
        check tb "raises" true
          (match Logic.Pla.parse_string ".i 2\n.o 1\n111 1\n.e\n" with
           | exception Logic.Pla.Parse_error _ -> true
           | _ -> false));
  ]

let verilog_sample = {|
// paper running example
module fig2 (a, b, c, f);
  input a, b, c;
  output f;
  wire t;        /* product term */
  and g1 (t, a, b);
  assign f = t | c;
endmodule
|}

let verilog_tests =
  [
    Alcotest.test_case "parse structural module" `Quick (fun () ->
        let nl = Logic.Verilog.parse_string verilog_sample in
        check ts "name" "fig2" nl.name;
        check ti "inputs" 3 (Logic.Netlist.num_inputs nl);
        let expected =
          Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
            [ "f", e "(a & b) | c" ]
        in
        check tb "semantics" true
          (Logic.Truth_table.equal (Logic.Netlist.to_truth_table nl) expected));
    Alcotest.test_case "vector declarations flatten" `Quick (fun () ->
        let text =
          "module v (x, p);\n input [2:0] x;\n output p;\n \
           assign p = x[0] ^ x[1] ^ x[2];\nendmodule\n"
        in
        let nl = Logic.Verilog.parse_string text in
        check Alcotest.(list string) "inputs" [ "x[0]"; "x[1]"; "x[2]" ]
          nl.inputs;
        let out = Logic.Netlist.eval nl (fun v -> v = "x[1]") in
        check tb "parity" true (List.assoc "p" out));
    Alcotest.test_case "all gate primitives" `Quick (fun () ->
        let text =
          "module g (a, b, o1, o2, o3, o4, o5, o6, o7);\n\
           input a, b;\n\
           output o1, o2, o3, o4, o5, o6, o7;\n\
           and (o1, a, b); or (o2, a, b); nand (o3, a, b);\n\
           nor (o4, a, b); xor (o5, a, b); xnor (o6, a, b);\n\
           not (o7, a);\nendmodule\n"
        in
        let nl = Logic.Verilog.parse_string text in
        let out = Logic.Netlist.eval nl (fun v -> v = "a") in
        check tb "and" false (List.assoc "o1" out);
        check tb "or" true (List.assoc "o2" out);
        check tb "nand" true (List.assoc "o3" out);
        check tb "nor" false (List.assoc "o4" out);
        check tb "xor" true (List.assoc "o5" out);
        check tb "xnor" false (List.assoc "o6" out);
        check tb "not" false (List.assoc "o7" out));
    Alcotest.test_case "out-of-order statements sorted" `Quick (fun () ->
        let text =
          "module o (a, f);\n input a;\n output f;\n wire t;\n \
           assign f = t;\n assign t = ~a;\nendmodule\n"
        in
        let nl = Logic.Verilog.parse_string text in
        check tb "f = !a" true
          (List.assoc "f" (Logic.Netlist.eval nl (fun _ -> false))));
    Alcotest.test_case "behavioural constructs rejected with line" `Quick
      (fun () ->
         let text =
           "module b (a, f);\n input a;\n output f;\n \
            always @(a) f = a;\nendmodule\n"
         in
         check tb "raises" true
           (match Logic.Verilog.parse_string text with
            | exception Logic.Verilog.Parse_error { line = 4; _ } -> true
            | exception Logic.Verilog.Parse_error _ -> true
            | _ -> false));
    Alcotest.test_case "print / parse round trip" `Quick (fun () ->
        let nl = sample_netlist () in
        let nl' = Logic.Verilog.parse_string (Logic.Verilog.to_string nl) in
        check tb "same function" true
          (Logic.Truth_table.equal
             (Logic.Netlist.to_truth_table nl)
             (Logic.Netlist.to_truth_table nl')));
    Alcotest.test_case "combinational cycle rejected" `Quick (fun () ->
        let text =
          "module c (a, f);\n input a;\n output f;\n wire x, y;\n \
           assign x = y & a;\n assign y = x;\n assign f = x;\nendmodule\n"
        in
        check tb "raises" true
          (match Logic.Verilog.parse_string text with
           | exception Logic.Netlist.Ill_formed _ -> true
           | _ -> false));
  ]

let file_io_tests =
  [
    Alcotest.test_case "blif write_file / parse_file round trip" `Quick
      (fun () ->
         let nl = sample_netlist () in
         let path = Filename.temp_file "compact_test" ".blif" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
              Logic.Blif.write_file path nl;
              let nl' = Logic.Blif.parse_file path in
              check tb "same function" true
                (Logic.Truth_table.equal
                   (Logic.Netlist.to_truth_table nl)
                   (Logic.Netlist.to_truth_table nl'))));
    Alcotest.test_case "pla write_file / parse_file round trip" `Quick
      (fun () ->
         let tt =
           Logic.Truth_table.of_exprs ~inputs:[ "a"; "b"; "c" ]
             [ "f", e "(a & b) ^ c" ]
         in
         let pla = Logic.Pla.of_truth_table tt in
         let path = Filename.temp_file "compact_test" ".pla" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
              Logic.Pla.write_file path pla;
              let pla' = Logic.Pla.parse_file path in
              check tb "same function" true
                (Logic.Truth_table.equal tt
                   (Logic.Netlist.to_truth_table (Logic.Pla.to_netlist pla')))));
    Alcotest.test_case "semantically_equal variable cap" `Quick (fun () ->
        let wide =
          Logic.Expr.or_ (List.init 25 (fun i -> Logic.Expr.var (Printf.sprintf "w%d" i)))
        in
        check tb "raises" true
          (match Logic.Expr.semantically_equal wide wide with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Malformed-input fuzzing: whatever bytes arrive, the BLIF/PLA parsers
   must either parse them or raise their own error exception — never
   Stack_overflow, Match_failure or an uncaught Failure. *)

let fails_cleanly parse text =
  match parse text with
  | _ -> true
  | exception Logic.Blif.Parse_error _ -> true
  | exception Logic.Pla.Parse_error _ -> true
  | exception Logic.Netlist.Ill_formed _ -> true
  | exception _ -> false

(* Mutate one sample: truncate at a random byte, then overwrite a few
   random positions with arbitrary printable characters. *)
let mutation_gen sample =
  let open QCheck2.Gen in
  let len = String.length sample in
  let mutate (cut, edits) =
    let b = Bytes.of_string (String.sub sample 0 cut) in
    List.iter
      (fun (pos, c) -> if cut > 0 then Bytes.set b (pos mod cut) c)
      edits;
    Bytes.to_string b
  in
  map mutate
    (pair (int_bound len)
       (small_list (pair (int_bound (max 0 (len - 1))) printable)))

let fuzz_tests =
  [
    qcheck_case "blif: mutations never escape Parse_error" ~count:300
      (mutation_gen blif_sample)
      (fails_cleanly Logic.Blif.parse_string);
    qcheck_case "pla: mutations never escape Parse_error" ~count:300
      (mutation_gen pla_sample)
      (fails_cleanly Logic.Pla.parse_string);
    Alcotest.test_case "blif: every truncation fails cleanly" `Quick
      (fun () ->
         for cut = 0 to String.length blif_sample - 1 do
           check tb
             (Printf.sprintf "prefix %d" cut)
             true
             (fails_cleanly Logic.Blif.parse_string
                (String.sub blif_sample 0 cut))
         done);
    Alcotest.test_case "pla: every truncation fails cleanly" `Quick (fun () ->
        for cut = 0 to String.length pla_sample - 1 do
          check tb
            (Printf.sprintf "prefix %d" cut)
            true
            (fails_cleanly Logic.Pla.parse_string
               (String.sub pla_sample 0 cut))
        done);
    Alcotest.test_case "blif: duplicate .model rejected" `Quick (fun () ->
        let text = ".model a\n.model b\n.inputs x\n.outputs f\n.end\n" in
        check tb "raises" true
          (match Logic.Blif.parse_string text with
           | exception Logic.Blif.Parse_error { line = 2; _ } -> true
           | _ -> false));
    Alcotest.test_case "pla: non-numeric .i/.o rejected" `Quick (fun () ->
        List.iter
          (fun text ->
             check tb text true
               (match Logic.Pla.parse_string text with
                | exception Logic.Pla.Parse_error _ -> true
                | _ -> false))
          [ ".i xx\n.o 1\n.e\n"; ".i 2\n.o -3\n.e\n"; ".i 1 2\n.o 1\n.e\n" ]);
    Alcotest.test_case "pla: bad cube characters rejected" `Quick (fun () ->
        check tb "raises" true
          (match Logic.Pla.parse_string ".i 2\n.o 1\n1z 1\n.e\n" with
           | exception Logic.Pla.Parse_error _ -> true
           | _ -> false));
  ]

let () =
  Alcotest.run "logic"
    [
      "expr", expr_tests;
      "parse", parse_tests;
      "cube", cube_tests;
      "truth_table", tt_tests;
      "netlist", netlist_tests;
      "blif", blif_tests;
      "pla", pla_tests;
      "verilog", verilog_tests;
      "file_io", file_io_tests;
      "fuzz", fuzz_tests;
    ]
