(* Tests for the ROBDD engine: canonicity, Boolean operations, SBDD
   construction, ordering heuristics and sifting. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

let e = Logic.Parse.expr

(* Random expressions over the given variables. *)
let expr_gen_over var_names =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then map Logic.Expr.var (oneofl var_names)
      else
        frequency
          [ 1, map Logic.Expr.var (oneofl var_names);
            2, map Logic.Expr.not_ (self (n - 1));
            2, map2 (fun a b -> Logic.Expr.and_ [ a; b ]) (self (n / 2)) (self (n / 2));
            2, map2 (fun a b -> Logic.Expr.or_ [ a; b ]) (self (n / 2)) (self (n / 2));
            1, map2 Logic.Expr.xor (self (n / 2)) (self (n / 2)) ])

let expr_gen = expr_gen_over [ "x0"; "x1"; "x2"; "x3" ]

let level_of v = int_of_string (String.sub v 1 (String.length v - 1))

let build man f = Bdd.Build.expr man ~var_level:level_of f

let fresh_man () = Bdd.Manager.create ~num_vars:4 ()

let envs = List.init 16 (fun bits -> fun lvl -> bits land (1 lsl lvl) <> 0)

let same_function man node f =
  List.for_all
    (fun env ->
       Bdd.Manager.eval man node env
       = Logic.Expr.eval (fun v -> env (level_of v)) f)
    envs

let manager_tests =
  [
    Alcotest.test_case "terminals" `Quick (fun () ->
        check tb "0" false (Bdd.Manager.eval (fresh_man ()) Bdd.Manager.zero (fun _ -> true));
        check tb "1" true (Bdd.Manager.eval (fresh_man ()) Bdd.Manager.one (fun _ -> false));
        check tb "term" true (Bdd.Manager.is_terminal Bdd.Manager.zero));
    Alcotest.test_case "projection variables" `Quick (fun () ->
        let man = fresh_man () in
        let x1 = Bdd.Manager.var man 1 in
        check tb "true branch" true (Bdd.Manager.eval man x1 (fun l -> l = 1));
        check tb "false branch" false (Bdd.Manager.eval man x1 (fun _ -> false));
        check ti "level" 1 (Bdd.Manager.level man x1));
    Alcotest.test_case "out-of-range variable rejected" `Quick (fun () ->
        check tb "raises" true
          (match Bdd.Manager.var (fresh_man ()) 7 with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "canonicity: equal functions share a node" `Quick
      (fun () ->
         let man = fresh_man () in
         let f1 = build man (e "!(x0 & x1)") in
         let f2 = build man (e "!x0 | !x1") in
         check ti "same handle" f1 f2);
    Alcotest.test_case "reduction: no node with equal children" `Quick
      (fun () ->
         let man = fresh_man () in
         let f = build man (e "(x0 & x1) | (!x0 & x1)") in
         (* Collapses to x1. *)
         check ti "is x1" (Bdd.Manager.var man 1) f);
    Alcotest.test_case "not involutive on handles" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "x0 ^ x2 | x1") in
        check ti "same" f (Bdd.Manager.not_ man (Bdd.Manager.not_ man f)));
    Alcotest.test_case "ite terminal shortcuts" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "x0 & x1") in
        check ti "ite(1,f,g)" f (Bdd.Manager.ite man Bdd.Manager.one f Bdd.Manager.zero);
        check ti "ite(f,1,0)" f (Bdd.Manager.ite man f Bdd.Manager.one Bdd.Manager.zero));
    Alcotest.test_case "support" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "(x0 & x3) | x3") in
        let levels =
          List.filter_map
            (fun n ->
               if Bdd.Manager.is_terminal n then None
               else Some (Bdd.Manager.level man n))
            (Bdd.Manager.reachable man [ f ])
        in
        check Alcotest.(list int) "deps" [ 3 ] (List.sort_uniq compare levels));
    Alcotest.test_case "any_sat is satisfying" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "!x0 & x2") in
        match Bdd.Manager.any_sat man f with
        | None -> Alcotest.fail "expected sat"
        | Some partial ->
          let env lvl =
            match List.assoc_opt lvl partial with Some b -> b | None -> false
          in
          check tb "sat" true (Bdd.Manager.eval man f env));
    Alcotest.test_case "any_sat of zero" `Quick (fun () ->
        check tb "none" true
          (Bdd.Manager.any_sat (fresh_man ()) Bdd.Manager.zero = None));
    Alcotest.test_case "size counts reachable nodes" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "x0 & x1 & x2") in
        (* chain of 3 internal nodes + two terminals *)
        check ti "size" 5 (Bdd.Manager.size man [ f ]));
    Alcotest.test_case "iter_edges arity" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "x0 & x1") in
        let count = ref 0 in
        Bdd.Manager.iter_edges man [ f ] (fun _ _ _ -> incr count);
        check ti "2 per internal node" 4 !count);
    Alcotest.test_case "node limit enforced" `Quick (fun () ->
        let man = Bdd.Manager.create ~node_limit:4 ~num_vars:4 () in
        check tb "raises" true
          (match build man (e "(x0 ^ x1) & (x2 ^ x3)") with
           | exception Bdd.Manager.Size_limit _ -> true
           | _ -> false));
    qcheck_case "BDD semantics equals expression semantics" expr_gen
      (fun f ->
         let man = fresh_man () in
         same_function man (build man f) f);
    qcheck_case "xor/xnor complementary" expr_gen (fun f ->
        let man = fresh_man () in
        let g = build man (e "x1 | x3") in
        let nf = build man f in
        Bdd.Manager.ite man nf g (Bdd.Manager.not_ man g)
        = Bdd.Manager.not_ man (Bdd.Manager.xor man nf g));
    qcheck_case "canonicity of equivalent rewrites" expr_gen (fun f ->
        let man = fresh_man () in
        let direct = build man f in
        let doubled = build man (Logic.Expr.or_ [ f; f ]) in
        direct = doubled);
  ]

(* ------------------------------------------------------------------ *)

let adder = lazy (Circuits.Arith.ripple_adder ~bits:3 ())

let order_tests =
  [
    Alcotest.test_case "all heuristics are permutations" `Quick (fun () ->
        let nl = Lazy.force adder in
        let sorted = List.sort String.compare nl.inputs in
        List.iter
          (fun order ->
             check
               Alcotest.(list string)
               "perm" sorted
               (List.sort String.compare order))
          (Bdd.Order.candidates nl));
    Alcotest.test_case "dfs_fanin interleaves adder operands" `Quick
      (fun () ->
         let nl = Lazy.force adder in
         match Bdd.Order.dfs_fanin nl with
         | "a0" :: "b0" :: _ -> ()
         | other ->
           Alcotest.failf "unexpected start: %s" (String.concat "," other));
    Alcotest.test_case "by_depth puts shallow inputs first" `Quick (fun () ->
        (* f = deep(a,b,c) | strobe: the strobe feeds the output directly. *)
        let nl =
          Logic.Netlist.create ~name:"t" ~inputs:[ "a"; "b"; "c"; "strobe" ]
            ~outputs:[ "f" ]
            [
              Logic.Netlist.n_and "t1" [ "a"; "b" ];
              Logic.Netlist.n_xor "t2" "t1" "c";
              Logic.Netlist.n_or "f" [ "t2"; "strobe" ];
            ]
        in
        match Bdd.Order.by_depth nl with
        | "strobe" :: _ -> ()
        | other -> Alcotest.failf "got %s" (String.concat "," other));
    Alcotest.test_case "interleaved covers all inputs" `Quick (fun () ->
        let nl = Lazy.force adder in
        check ti "length" (List.length nl.inputs)
          (List.length (Bdd.Order.interleaved nl)));
  ]

let sbdd_tests =
  [
    Alcotest.test_case "netlist semantics preserved" `Quick (fun () ->
        let nl = Lazy.force adder in
        (* Same input order so the tables are directly comparable. *)
        let sbdd = Bdd.Sbdd.of_netlist ~order:nl.inputs nl in
        check tb "tables equal" true
          (Logic.Truth_table.equal
             (Bdd.Sbdd.to_truth_table sbdd)
             (Logic.Netlist.to_truth_table nl)));
    Alcotest.test_case "order is respected" `Quick (fun () ->
        let nl = Lazy.force adder in
        let order = List.sort String.compare nl.inputs in
        let sbdd = Bdd.Sbdd.of_netlist ~order nl in
        check Alcotest.(list string) "order" order
          (Array.to_list sbdd.input_order));
    Alcotest.test_case "bad order rejected" `Quick (fun () ->
        let nl = Lazy.force adder in
        check tb "raises" true
          (match Bdd.Sbdd.of_netlist ~order:[ "a0" ] nl with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "separate ROBDDs compute the same outputs" `Quick
      (fun () ->
         let nl = Lazy.force adder in
         let shared = Bdd.Sbdd.of_netlist nl in
         let separate = Bdd.Sbdd.of_netlist_separate nl in
         check ti "one per output" (Logic.Netlist.num_outputs nl)
           (List.length separate);
         let env v = String.length v mod 2 = 0 in
         let expected = Bdd.Sbdd.eval shared env in
         List.iter
           (fun single ->
              List.iter
                (fun (o, value) ->
                   check tb o (List.assoc o expected) value)
                (Bdd.Sbdd.eval single env))
           separate);
    Alcotest.test_case "sharing never larger than separate total" `Quick
      (fun () ->
         let nl = Lazy.force adder in
         let shared = Bdd.Sbdd.size (Bdd.Sbdd.of_netlist nl) in
         let separate =
           List.fold_left
             (fun acc s -> acc + Bdd.Sbdd.size s)
             0
             (Bdd.Sbdd.of_netlist_separate nl)
         in
         check tb "shared <= separate" true (shared <= separate));
    Alcotest.test_case "best_order picks the minimum candidate" `Quick
      (fun () ->
         let nl = Lazy.force adder in
         let _, best = Bdd.Sbdd.best_order nl in
         List.iter
           (fun order ->
              let sz = Bdd.Sbdd.size (Bdd.Sbdd.of_netlist ~order nl) in
              check tb "minimal" true (best <= sz))
           (Bdd.Order.candidates nl));
    Alcotest.test_case "num_edges is twice the internal nodes" `Quick
      (fun () ->
         let nl = Lazy.force adder in
         let sbdd = Bdd.Sbdd.of_netlist nl in
         let internal =
           List.length
             (List.filter
                (fun n -> not (Bdd.Manager.is_terminal n))
                (Bdd.Manager.reachable sbdd.man (List.map snd sbdd.roots)))
         in
         check ti "edges" (2 * internal) (Bdd.Sbdd.num_edges sbdd));
    Alcotest.test_case "constant outputs" `Quick (fun () ->
        let nl =
          Logic.Netlist.create ~name:"consts" ~inputs:[ "a" ]
            ~outputs:[ "zero"; "one"; "id" ]
            [
              Logic.Netlist.n_expr "zero" Logic.Expr.fls;
              Logic.Netlist.n_expr "one" Logic.Expr.tru;
              Logic.Netlist.n_buf "id" "a";
            ]
        in
        let sbdd = Bdd.Sbdd.of_netlist nl in
        check ti "zero root" Bdd.Manager.zero (List.assoc "zero" sbdd.roots);
        check ti "one root" Bdd.Manager.one (List.assoc "one" sbdd.roots));
    Alcotest.test_case "dot export mentions every output" `Quick (fun () ->
        let nl = Lazy.force adder in
        let dot = Bdd.Dot.sbdd (Bdd.Sbdd.of_netlist nl) in
        List.iter
          (fun o ->
             let marker = "out_" ^ o in
             check tb marker true
               (let len = String.length dot and m = String.length marker in
                let rec find i =
                  i + m <= len && (String.sub dot i m = marker || find (i + 1))
                in
                find 0))
          nl.outputs);
    Alcotest.test_case "dot export does not depend on handles" `Quick
      (fun () ->
         (* f = (x0 & x1) | (x2 ^ ~x3) and g = x1 ^ x3, built once in a
            fresh manager and once after unrelated nodes took the first
            handles. *)
         let build ~clutter =
           let man = Bdd.Manager.create ~num_vars:4 () in
           let x = Bdd.Manager.var man in
           if clutter then
             ignore
               Bdd.Manager.(
                 and_ man (xor man (x 0) (x 2)) (or_ man (x 1) (not_ man (x 3))));
           let f =
             Bdd.Manager.(
               or_ man (and_ man (x 0) (x 1)) (xor man (x 2) (not_ man (x 3))))
           in
           let g = Bdd.Manager.xor man (x 1) (x 3) in
           {
             Bdd.Sbdd.man;
             input_order = [| "x0"; "x1"; "x2"; "x3" |];
             roots = [ "f", f; "g", g ];
           }
         in
         let fresh = build ~clutter:false and cluttered = build ~clutter:true in
         check tb "handles differ" true
           (List.assoc "f" fresh.roots <> List.assoc "f" cluttered.roots);
         check Alcotest.string "same text" (Bdd.Dot.sbdd fresh)
           (Bdd.Dot.sbdd cluttered));
    qcheck_case "expression round trip through a 1-output netlist" expr_gen
      (fun f ->
         let inputs = [ "x0"; "x1"; "x2"; "x3" ] in
         let nl =
           Logic.Netlist.create ~name:"rt" ~inputs ~outputs:[ "f" ]
             [ Logic.Netlist.n_expr "f" f ]
         in
         let sbdd = Bdd.Sbdd.of_netlist ~order:inputs nl in
         Logic.Truth_table.equal
           (Bdd.Sbdd.to_truth_table sbdd)
           (Logic.Netlist.to_truth_table nl));
  ]

let extra_ops_tests =
  [
    Alcotest.test_case "clear_caches keeps semantics" `Quick (fun () ->
        let man = fresh_man () in
        let f = build man (e "(x0 ^ x1) & x2") in
        Bdd.Manager.clear_caches man;
        let g = build man (e "(x0 ^ x1) & x2") in
        check ti "same node after cache reset" f g);
    Alcotest.test_case "allocated grows monotonically" `Quick (fun () ->
        let man = fresh_man () in
        let before = Bdd.Manager.allocated man in
        ignore (build man (e "x0 ^ x1 ^ x2"));
        check tb "grew" true (Bdd.Manager.allocated man > before));
  ]

(* The variable-order step: best static candidate, then sifting. The
   pinned rows are sifting's results on three Table-I circuits. Sift
   decisions depend only on live-node counts, so a change to any of
   them moves a size, a swap count, a pass count or an order. *)
let reorder_tests =
  [
    Alcotest.test_case "improve preserves semantics" `Quick (fun () ->
        let nl = Lazy.force adder in
        let sbdd = Bdd.Sbdd.improve nl in
        let env v = String.length v = 2 in
        let expected =
          Logic.Netlist.eval nl env
        in
        List.iter
          (fun (o, value) -> check tb o (List.assoc o expected) value)
          (Bdd.Sbdd.eval sbdd env));
    Alcotest.test_case "sifting from the best static order is pinned"
      `Quick (fun () ->
        List.iter
          (fun (name, static, sifted, swaps, passes, order) ->
             let nl = (Circuits.Suite.find name).generate () in
             let start, size = Bdd.Sbdd.best_order ~node_limit:20_000 nl in
             check ti (name ^ " static nodes") static size;
             let sbdd = Bdd.Sbdd.improve ~order:start ~node_limit:20_000 nl in
             let s = Bdd.Sbdd.stats sbdd in
             check ti (name ^ " sifted nodes") sifted (Bdd.Sbdd.size sbdd);
             check ti (name ^ " level swaps") swaps s.level_swaps;
             check ti (name ^ " sift passes") passes s.sift_passes;
             check
               Alcotest.(list string)
               (name ^ " order")
               (String.split_on_char ' ' (String.concat " " order))
               (Array.to_list sbdd.input_order))
          [
            "cavlc", 122, 103, 510, 3, [ "w9 w8 w6 w5 w4 w2 w1 w0 w3 w7" ];
            ( "c432", 483, 294, 2052, 2,
              [ "en0 irq0 irq1 irq2 en3 irq9 irq10 irq11 en2 irq8 irq7 irq6";
                "en1 irq5 irq4 irq3 en4 irq12 irq13 irq14 en5 irq15 irq16";
                "irq17 en6 irq18 irq19 irq20 en7 irq21 irq22 irq23 en8";
                "irq24 irq26 irq25" ] );
            ( "router", 1549, 377, 11480, 3,
              [ "p0 p1 p2 p3 p4 p5 p6 p7 p8 p9 p10 p11 p12 p13 p14 p15 p16";
                "p17 p18 p19 p20 p21 p22 p23 dx0 lx0 dy0 ly0 dx1 lx1 dy1";
                "ly1 dx2 lx2 dy2 ly2 dx3 lx3 dy3 ly3 dx4 lx4 dy4 ly4 dx5";
                "lx5 dy5 ly5 dx6 lx6 dy6 ly6 dy7 ly7 cr2 cr3 dx7 lx7 cr0";
                "cr1" ] );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Pinned diagrams. Every counter of [Manager.stats] moves if apply's
   normalisation or cache, the build's folding of negations, the unique
   table's hash or its growth schedule changes; the size and the
   canonical fingerprint move only if the order step picks or sifts
   another diagram, or the build computes another function. Sizes and
   fingerprints were recorded before the build moved from ITE to apply,
   the stats rows after it. *)

let stats_row (s : Bdd.Manager.stats) =
  [ s.unique_lookups; s.unique_hits; s.unique_collisions; s.cache_lookups;
    s.cache_hits; s.growths; s.peak_nodes; s.level_swaps; s.sift_passes;
    s.cache_invalidations ]

let check_pinned name sbdd (size, stats, fingerprint) =
  check ti (name ^ " nodes") size (Bdd.Sbdd.size sbdd);
  check Alcotest.(list int) (name ^ " stats") stats
    (stats_row (Bdd.Sbdd.stats sbdd));
  check Alcotest.string (name ^ " fingerprint") fingerprint
    (Server.Fingerprint.sbdd sbdd)

let fingerprint_tests =
  [
    Alcotest.test_case "default-order builds are pinned" `Quick (fun () ->
        List.iter
          (fun (name, pinned) ->
             let nl = (Circuits.Suite.find name).generate () in
             check_pinned name (Bdd.Sbdd.of_netlist nl) pinned)
          [
            ( "c432",
              ( 483, [ 5061; 154; 7067; 7023; 1963; 1; 4909; 0; 0; 0 ],
                "575bb14062cd3a2c" ) );
            ( "c499",
              ( 19951,
                [ 31115; 7905; 58221; 58389; 27315; 3; 23212; 0; 0; 0 ],
                "6d3636c5e82461a4" ) );
            ( "c880",
              ( 2110, [ 11696; 1034; 21595; 19578; 7845; 2; 10664; 0; 0; 0 ],
                "52bb35c84f7e2794" ) );
            ( "c1355",
              ( 19951,
                [ 31115; 7905; 58221; 58389; 27315; 3; 23212; 0; 0; 0 ],
                "6d3636c5e82461a4" ) );
            ( "c1908",
              ( 25365,
                [ 70045; 40384; 81850; 134842; 64757; 4; 29663; 0; 0; 0 ],
                "fbc9983d2d12ad94" ) );
            ( "c2670",
              ( 7235,
                [ 51100; 4955; 123109; 89316; 38043; 4; 46147; 0; 0; 0 ],
                "9d54a29ea38fb9de" ) );
            ( "c3540",
              ( 2821,
                [ 17715; 1558; 37739; 30155; 12381; 3; 16159; 0; 0; 0 ],
                "bb4af424a2c738b0" ) );
            ( "c5315",
              ( 9567,
                [ 68452; 4897; 153192; 120559; 51964; 5; 63557; 0; 0; 0 ],
                "ab5642cc915f3cdc" ) );
            ( "c7552",
              ( 6907,
                [ 37612; 860; 80860; 73091; 35362; 4; 36754; 0; 0; 0 ],
                "3fdc4df22e76331d" ) );
            ( "arbiter",
              ( 32519,
                [ 96258; 15992; 193724; 147519; 40104; 5; 80268; 0; 0; 0 ],
                "bae9ffcb0863db2a" ) );
            ( "cavlc",
              ( 122, [ 583; 86; 37; 652; 62; 0; 499; 0; 0; 0 ],
                "4f27041dfd505d1e" ) );
            ( "ctrl",
              ( 76, [ 154; 1; 5; 340; 183; 0; 155; 0; 0; 0 ],
                "bda0550985672fe9" ) );
            ( "dec",
              ( 512, [ 1066; 63; 175; 2828; 1770; 0; 1005; 0; 0; 0 ],
                "add89af19ad99b6b" ) );
            ( "i2c",
              ( 6317,
                [ 14099; 160; 32480; 20186; 6216; 3; 13941; 0; 0; 0 ],
                "fd967aaeae487e1c" ) );
            ( "int2float",
              ( 347, [ 933; 41; 138; 1323; 375; 0; 894; 0; 0; 0 ],
                "2493b356617f25a3" ) );
            ( "priority",
              ( 899,
                [ 55585; 2721; 134915; 55645; 188; 5; 52866; 0; 0; 0 ],
                "6799818430dc848f" ) );
            ( "router",
              ( 4172, [ 4583; 42; 7867; 8378; 3818; 1; 4543; 0; 0; 0 ],
                "62b682658f3a6c43" ) );
          ]);
    (* No budget: the search keeps the smallest candidate's own diagram,
       which has the counters of a fresh build under its order. *)
    Alcotest.test_case "the order step without a budget is pinned" `Quick
      (fun () ->
         List.iter
           (fun (name, pinned) ->
              let nl = (Circuits.Suite.find name).generate () in
              check_pinned name (Bdd.Sbdd.improve ~node_limit:20_000 nl) pinned)
           [
             ( "cavlc",
               ( 103, [ 7764; 2038; 176; 652; 62; 1; 5728; 510; 3; 1 ],
                 "12593cbdda5ac477" ) );
             ( "c432",
               ( 294,
                 [ 34822; 10719; 7582; 7023; 1963; 3; 24105; 2052; 2; 1 ],
                 "787692cf58ca26c6" ) );
             ( "router",
               ( 377,
                 [ 101499; 40139; 3446; 3586; 901; 5; 61362; 11480; 3; 1 ],
                 "ebb5ed1340cf25d3" ) );
           ]);
    (* An expired deadline stops the candidate search before any
       candidate completes, so the step keeps the dfs_fanin diagram, the
       one synth builds without --reorder, and the sift stops at once. *)
    Alcotest.test_case "the order step under an expired budget" `Quick
      (fun () ->
         let nl = (Circuits.Suite.find "c2670").generate () in
         let budget = Resilience.Budget.seconds 0. in
         let sbdd = Bdd.Sbdd.improve ~budget nl in
         check
           Alcotest.(list string)
           "dfs_fanin order" (Bdd.Order.dfs_fanin nl)
           (Array.to_list sbdd.input_order);
         check ti "no swaps" 0 (Bdd.Sbdd.stats sbdd).level_swaps;
         check Alcotest.string "the default-order diagram"
           (Server.Fingerprint.sbdd (Bdd.Sbdd.of_netlist nl))
           (Server.Fingerprint.sbdd sbdd));
  ]

(* ------------------------------------------------------------------ *)
(* In-place sifting. *)

let inputs6 = List.init 6 (Printf.sprintf "x%d")

let sift_tests =
  [
    (* The core reordering contract on random multi-rooted forests:
       every assignment evaluates identically before and after, the
       diagram never grows, and the in-place result is exactly the
       canonical diagram of the new order (a fresh build under the
       sifted order has the same size). The manager is also still
       usable: combining the sifted roots afterwards exercises the
       unique table across the rewritten levels. *)
    qcheck_case ~count:60 "sifting preserves canonicity and semantics"
      QCheck2.Gen.(pair (expr_gen_over inputs6) (expr_gen_over inputs6))
      (fun (f, g) ->
         let named = [ "f", f; "g", g ] in
         let sbdd = Bdd.Sbdd.of_exprs ~inputs:inputs6 named in
         let env_of bits v = bits land (1 lsl level_of v) <> 0 in
         let snapshot () =
           List.init 64 (fun bits -> Bdd.Sbdd.eval sbdd (env_of bits))
         in
         let before_tables = snapshot () in
         let before, after = Bdd.Sbdd.sift sbdd in
         after <= before
         && after = Bdd.Sbdd.size sbdd
         && snapshot () = before_tables
         && (let rebuilt =
               Bdd.Sbdd.of_exprs
                 ~order:(Array.to_list sbdd.input_order)
                 ~inputs:inputs6 named
             in
             Bdd.Sbdd.size rebuilt = after)
         &&
         let fr = List.assoc "f" sbdd.roots
         and gr = List.assoc "g" sbdd.roots in
         let conj = Bdd.Manager.and_ sbdd.man fr gr in
         List.for_all
           (fun bits ->
              let env = env_of bits in
              let env_lvl lvl = env sbdd.input_order.(lvl) in
              Bdd.Manager.eval sbdd.man conj env_lvl
              = (Logic.Expr.eval env f && Logic.Expr.eval env g))
           (List.init 64 Fun.id));
    Alcotest.test_case "sift rescues a bad comparator order" `Quick (fun () ->
        let nl = Circuits.Arith.comparator ~bits:6 () in
        let bad =
          List.init 6 (Printf.sprintf "a%d") @ List.init 6 (Printf.sprintf "b%d")
        in
        let sbdd = Bdd.Sbdd.of_netlist ~order:bad nl in
        let before, after = Bdd.Sbdd.sift sbdd in
        check tb "improved" true (after < before);
        let env v = v.[0] = 'a' in
        let expected = Logic.Netlist.eval nl env in
        List.iter
          (fun (o, value) -> check tb o (List.assoc o expected) value)
          (Bdd.Sbdd.eval sbdd env));
    Alcotest.test_case "sift is deterministic" `Quick (fun () ->
        let nl = Lazy.force adder in
        let run () =
          let sbdd = Bdd.Sbdd.of_netlist nl in
          let _, after = Bdd.Sbdd.sift sbdd in
          Array.to_list sbdd.input_order, after
        in
        let o1, s1 = run () and o2, s2 = run () in
        check Alcotest.(list string) "same order" o1 o2;
        check ti "same size" s1 s2);
    Alcotest.test_case "sift counters surface in stats" `Quick (fun () ->
        let nl = Circuits.Arith.comparator ~bits:4 () in
        let sbdd = Bdd.Sbdd.of_netlist nl in
        ignore (Bdd.Sbdd.sift sbdd);
        let s = Bdd.Sbdd.stats sbdd in
        check tb "swaps counted" true (s.level_swaps > 0);
        check tb "passes counted" true (s.sift_passes >= 1);
        check tb "invalidation counted" true (s.cache_invalidations >= 1));
    Alcotest.test_case "exhausted budget still leaves a consistent SBDD"
      `Quick (fun () ->
        let nl = Lazy.force adder in
        let budget = Resilience.Budget.seconds 0. in
        let sbdd = Bdd.Sbdd.of_netlist nl in
        ignore (Bdd.Sbdd.sift ~budget sbdd);
        List.iter
          (fun seed ->
             let env v = Hashtbl.hash (seed, v) land 1 = 1 in
             let expected = Logic.Netlist.eval nl env in
             List.iter
               (fun (o, value) -> check tb o (List.assoc o expected) value)
               (Bdd.Sbdd.eval sbdd env))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Apply against truth tables, and the build against the ITE-based one
   it replaced ([Ite_build]) and its keys against the boxed hash
   ([Boxed_fingerprint]). *)

let apply_tests =
  [
    (* Every operator on the same manager, so two operators that shared
       a cache entry would answer each other's probes. *)
    qcheck_case "apply matches all 16 truth tables"
      QCheck2.Gen.(pair expr_gen expr_gen)
      (fun (ef, eg) ->
         let man = fresh_man () in
         let f = build man ef and g = build man eg in
         let zero = Bdd.Manager.zero and one = Bdd.Manager.one in
         let operands =
           [ f, g; g, f; f, f; g, g; f, zero; f, one; zero, g; one, g;
             zero, zero; zero, one; one, zero; one, one ]
         in
         List.for_all
           (fun op ->
              List.for_all
                (fun (a, b) ->
                   let r = Bdd.Manager.apply man op a b in
                   List.for_all
                     (fun env ->
                        let bit n = Bool.to_int (Bdd.Manager.eval man n env) in
                        Bdd.Manager.eval man r env
                        = ((op lsr ((2 * bit a) + bit b)) land 1 = 1))
                     envs)
                operands)
           (List.init 16 Fun.id));
  ]

(* Loadgen's expression generator, draw for draw, and its default
   stream: with probability 0.4 one of 4 hot expressions, otherwise a
   fresh depth-4 tree over 8 variables. *)
let rec loadgen_expr st depth =
  if depth = 0 then
    (if Random.State.bool st then "~" else "")
    ^ [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |].(Random.State.int st 8)
  else
    let op = [| " & "; " | "; " ^ " |].(Random.State.int st 3) in
    "(" ^ loadgen_expr st (depth - 1) ^ op ^ loadgen_expr st (depth - 1) ^ ")"

let loadgen_hot =
  List.init 4 (fun i ->
      loadgen_expr (Crossbar.Rng.state Crossbar.Rng.default_seed ("loadgen-hot", i)) 4)

(* serve-mix's requests: the 66 distinct expressions among the first
   100 of the default stream. *)
let serve_mix_exprs =
  let hot = Array.of_list loadgen_hot in
  List.sort_uniq compare
    (List.init 100 (fun i ->
         let st = Crossbar.Rng.state Crossbar.Rng.default_seed ("loadgen-req", i + 1) in
         if Random.State.float st 1. < 0.4 then hot.(Random.State.int st 4)
         else loadgen_expr st 4))

(* An expression request's netlist, as compactd builds it. *)
let expr_netlist s = Logic.Netlist.of_expr ~name:"expr" (Logic.Parse.expr s)

(* Raw expressions, as the smart constructors would not leave them:
   [Not] over compound terms, nested [Xor], constants, [And []] and
   [Or []]. *)
let raw_expr_gen names =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [ 6, map (fun v -> Logic.Expr.Var v) (oneofl names);
        1, map (fun b -> Logic.Expr.Const b) bool;
        1, pure (Logic.Expr.And []);
        1, pure (Logic.Expr.Or []) ]
  in
  sized_size (int_bound 10)
  @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        frequency
          [ 1, leaf;
            3, map (fun e -> Logic.Expr.Not e) (self (n - 1));
            2, map (fun es -> Logic.Expr.And es)
              (list_size (int_range 1 3) (self (n / 2)));
            2, map (fun es -> Logic.Expr.Or es)
              (list_size (int_range 1 3) (self (n / 2)));
            2, map2 (fun a b -> Logic.Expr.Xor (a, b)) (self (n / 2)) (self (n / 2)) ])

(* Netlists of one to five wires over four inputs. A wire reads inputs
   and earlier wires, or inverts an earlier wire, so gates read wires
   stored negated and outputs can be negated wires. *)
let netlist_gen =
  let open QCheck2.Gen in
  let inputs = [ "x0"; "x1"; "x2"; "x3" ] in
  let wire i = Printf.sprintf "w%d" i in
  int_range 1 5 >>= fun k ->
  let rec wires i acc =
    if i = k then pure (List.rev acc)
    else
      let earlier = List.init i wire in
      let func =
        if i = 0 then raw_expr_gen inputs
        else
          frequency
            [ 3, raw_expr_gen (inputs @ earlier);
              1, map (fun w -> Logic.Expr.Not (Logic.Expr.Var w)) (oneofl earlier) ]
      in
      func >>= fun e -> wires (i + 1) (Logic.Netlist.n_expr (wire i) e :: acc)
  in
  wires 0 [] >>= fun nodes ->
  list_size (int_range 1 k) (int_bound (k - 1)) >>= fun picks ->
  let outputs = List.sort_uniq compare (List.map wire picks) in
  pure (Logic.Netlist.create ~name:"random" ~inputs ~outputs nodes)

let netlist_print nl =
  String.concat "; "
    (List.map
       (fun (n : Logic.Netlist.node) ->
          n.wire ^ " = " ^ Logic.Expr.to_string n.func)
       nl.Logic.Netlist.nodes)
  ^ " -> " ^ String.concat "," nl.Logic.Netlist.outputs

(* The apply build and the ITE build agree on size and canonical
   fingerprint, each side hashed with its own generation's code; and on
   the apply build the boxed hash gives the same fingerprint and cache
   key. compactd's journal and snapshot store these keys, so a moved key
   would orphan every entry of a durable cache. *)
let check_same_as_ite name nl =
  let sbdd = Bdd.Sbdd.of_netlist nl and old = Ite_build.of_netlist nl in
  let options = Compact.Pipeline.default_options in
  check ti (name ^ " size") (Ite_build.size old) (Bdd.Sbdd.size sbdd);
  check Alcotest.string (name ^ " fingerprint") (Ite_build.fingerprint old)
    (Server.Fingerprint.sbdd sbdd);
  check Alcotest.string (name ^ " boxed fingerprint")
    (Boxed_fingerprint.sbdd sbdd) (Server.Fingerprint.sbdd sbdd);
  check Alcotest.string (name ^ " key")
    (Boxed_fingerprint.key ~options sbdd)
    (Server.Fingerprint.key ~options sbdd)

let oracle_tests =
  [
    (* serve-hot's three circuits, c7552, dec and ctrl, are among them. *)
    Alcotest.test_case "the 17 Table-I circuits match the ITE build" `Quick
      (fun () ->
         List.iter
           (fun (entry : Circuits.Suite.entry) ->
              check_same_as_ite entry.name (entry.generate ()))
           Circuits.Suite.all);
    Alcotest.test_case "serve-mix's expressions match the ITE build" `Quick
      (fun () ->
         check ti "distinct expressions" 66 (List.length serve_mix_exprs);
         List.iter
           (fun s -> check_same_as_ite s (expr_netlist s))
           (serve_mix_exprs @ loadgen_hot));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:(300 * qcheck_mult) ~print:netlist_print
         ~name:"random netlists match the ITE build" netlist_gen (fun nl ->
             check_same_as_ite "random" nl;
             true));
  ]

let () =
  Alcotest.run "bdd"
    [
      "manager", manager_tests;
      "order", order_tests;
      "sbdd", sbdd_tests;
      "extra_ops", extra_ops_tests;
      "fingerprint", fingerprint_tests;
      "reorder", reorder_tests;
      "sift", sift_tests;
      "apply", apply_tests;
      "oracle", oracle_tests;
    ]
