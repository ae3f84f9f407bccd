(* Tests for the COMPACT core: preprocessing, VH-labeling (all three
   solvers), balancing, crossbar mapping and the end-to-end pipeline. *)

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

let graph_of_expr ?order f =
  let inputs = Logic.Expr.vars f in
  let nl =
    Logic.Netlist.create ~name:"t" ~inputs ~outputs:[ "f" ]
      [ Logic.Netlist.n_expr "f" f ]
  in
  Compact.Preprocess.of_sbdd (Bdd.Sbdd.of_netlist ?order nl)

let fig2_graph = lazy (graph_of_expr (e "(a & b) | c"))

(* [bg.edges] decoded: [(u, v, literal)] per edge, in order. *)
let edge_literals (bg : Compact.Types.bdd_graph) =
  List.init
    (Array.length bg.edges / 3)
    (fun i ->
       ( bg.edges.(3 * i),
         bg.edges.((3 * i) + 1),
         Crossbar.Literal.of_code bg.inputs bg.edges.((3 * i) + 2) ))

(* Random expression generator over a fixed variable alphabet. *)
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

let expr_gen = expr_gen_over [ "a"; "b"; "c" ]

(* Wider expressions (4-6 variables) for the differential battery: big
   enough to exercise every solver's branching, small enough that the
   verifier can enumerate all assignments. *)
let wide_expr_gen =
  let open QCheck2.Gen in
  int_range 4 6 >>= fun n ->
  expr_gen_over
    (List.filteri (fun i _ -> i < n) [ "a"; "b"; "c"; "d"; "e"; "f" ])

(* ------------------------------------------------------------------ *)

let preprocess_tests =
  [
    Alcotest.test_case "fig2: 4 nodes, 5 edges" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        check ti "nodes" 4 (Compact.Preprocess.num_bdd_nodes bg);
        check ti "edges" 5 (Compact.Preprocess.num_bdd_edges bg);
        check ti "terminal id" 0 bg.terminal);
    Alcotest.test_case "edge literals are variable pairs" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        List.iter
          (fun (u, v, lit) ->
             check tb "ordered" true (u < v);
             check tb "labelled" true
               (Crossbar.Literal.variable lit <> None
                || Crossbar.Literal.equal lit Crossbar.Literal.On))
          (edge_literals bg);
        check ti "one literal per edge"
          (Graphs.Ugraph.num_edges bg.graph)
          (List.length (edge_literals bg)));
    Alcotest.test_case "constant-1 output maps to the terminal" `Quick
      (fun () ->
         let bg = graph_of_expr Logic.Expr.tru in
         match bg.roots with
         | [ (_, Compact.Types.Node v) ] -> check ti "terminal" bg.terminal v
         | _ -> Alcotest.fail "expected a node root");
    Alcotest.test_case "constant-0 output marked Const_false" `Quick
      (fun () ->
         let bg = graph_of_expr Logic.Expr.fls in
         match bg.roots with
         | [ (_, Compact.Types.Const_false) ] -> ()
         | _ -> Alcotest.fail "expected Const_false");
    Alcotest.test_case "node names follow BDD variables" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        check Alcotest.string "terminal name" "1" bg.node_names.(bg.terminal));
  ]

(* ------------------------------------------------------------------ *)

let check_ok = function
  | Stdlib.Ok () -> ()
  | Stdlib.Error m -> Alcotest.fail m

let types_tests =
  [
    Alcotest.test_case "objective_of" `Quick (fun () ->
        check (Alcotest.float 1e-9) "gamma=1" 10.
          (Compact.Types.objective_of ~gamma:1. ~rows:6 ~cols:4);
        check (Alcotest.float 1e-9) "gamma=0" 6.
          (Compact.Types.objective_of ~gamma:0. ~rows:6 ~cols:4);
        check (Alcotest.float 1e-9) "gamma=0.5" 8.
          (Compact.Types.objective_of ~gamma:0.5 ~rows:6 ~cols:4));
    Alcotest.test_case "check_labeling rejects V-V edges" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        let labels =
          Array.make (Compact.Preprocess.num_bdd_nodes bg) Compact.Types.V
        in
        check tb "error" true
          (Compact.Types.check_labeling bg labels <> Stdlib.Ok ()));
    Alcotest.test_case "all-VH labeling always valid" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        let labels =
          Array.make (Compact.Preprocess.num_bdd_nodes bg) Compact.Types.VH
        in
        check_ok (Compact.Types.check_labeling bg labels);
        check_ok (Compact.Types.check_labeling ~alignment:true bg labels));
    Alcotest.test_case "alignment rejects V-labelled terminal" `Quick
      (fun () ->
         let bg = Lazy.force fig2_graph in
         let n = Compact.Preprocess.num_bdd_nodes bg in
         let labels = Array.make n Compact.Types.VH in
         labels.(bg.terminal) <- Compact.Types.V;
         check tb "error" true
           (Compact.Types.check_labeling ~alignment:true bg labels
            <> Stdlib.Ok ()));
    Alcotest.test_case "make_labeling derives counts" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        let labeling =
          Compact.Label_oct.solve ~gamma:1.0 bg
        in
        check ti "S = rows + cols"
          (labeling.rows + labeling.cols)
          (Compact.Types.semiperimeter labeling);
        check ti "S = n + #VH"
          (Compact.Preprocess.num_bdd_nodes bg + labeling.vh_count)
          (Compact.Types.semiperimeter labeling));
  ]

(* ------------------------------------------------------------------ *)

let labeling_valid ?(alignment = false) bg (labeling : Compact.Types.labeling) =
  Compact.Types.check_labeling ~alignment bg labeling.labels = Stdlib.Ok ()

let label_tests =
  [
    Alcotest.test_case "fig2 minimal semiperimeter is n + 1" `Quick (fun () ->
        (* The BDD graph of (a&b)|c contains an odd cycle: OCT = 1. *)
        let bg = Lazy.force fig2_graph in
        let labeling = Compact.Label_oct.solve ~gamma:1.0 bg in
        check tb "optimal" true labeling.optimal;
        check ti "vh" 1 labeling.vh_count;
        check ti "S" 5 (Compact.Types.semiperimeter labeling);
        check tb "valid" true (labeling_valid bg labeling));
    Alcotest.test_case "bipartite BDD graph needs no VH" `Quick (fun () ->
        (* A chain a & b & c has a path-shaped BDD graph. *)
        let bg = graph_of_expr (e "a & b & c") in
        let labeling = Compact.Label_oct.solve ~gamma:1.0 bg in
        check ti "vh" 0 labeling.vh_count;
        check tb "valid" true (labeling_valid bg labeling));
    Alcotest.test_case "greedy labeling is valid" `Quick (fun () ->
        let bg = graph_of_expr (e "(a ^ b) | (b & c)") in
        let labeling = Compact.Label_oct.greedy bg in
        check tb "valid" true (labeling_valid bg labeling));
    Alcotest.test_case "alignment puts ports on wordlines" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        List.iter
          (fun labeling ->
             check tb "valid aligned" true
               (labeling_valid ~alignment:true bg labeling))
          [
            Compact.Label_oct.solve ~alignment:true bg;
            Compact.Label_mip.solve ~alignment:true bg;
            Compact.Label_heuristic.solve ~alignment:true bg;
          ]);
    Alcotest.test_case "mip matches oct at gamma = 1" `Quick (fun () ->
        List.iter
          (fun f ->
             let bg = graph_of_expr f in
             let oct = Compact.Label_oct.solve ~gamma:1.0 bg in
             let mip = Compact.Label_mip.solve ~gamma:1.0 bg in
             check tb "both optimal" true (oct.optimal && mip.optimal);
             check ti "same semiperimeter"
               (Compact.Types.semiperimeter oct)
               (Compact.Types.semiperimeter mip))
          [ e "(a & b) | c"; e "a ^ b ^ c"; e "(a | b) & (b | c) & (a | c)" ]);
    Alcotest.test_case "mip never worse than heuristic" `Quick (fun () ->
        List.iter
          (fun gamma ->
             let bg = graph_of_expr (e "(a ^ b) & (b ^ c) | (a & c)") in
             let h = Compact.Label_heuristic.solve ~gamma bg in
             let mip = Compact.Label_mip.solve ~gamma bg in
             check tb "mip <= heuristic" true
               (mip.objective <= h.objective +. 1e-9))
          [ 0.0; 0.5; 1.0 ]);
    Alcotest.test_case "a warm start labelled at another gamma is rescored"
      `Quick (fun () ->
        (* All-VH labelled at γ = 0 carries objective D; at γ = 1 its value
           is S, so a search scored with D would prune every better node
           and return the all-VH labels as optimal. *)
        let bg = graph_of_expr (e "((a ^ b) & (c | d)) | ((a & ~c) ^ (b | d))") in
        let n = Compact.Preprocess.num_bdd_nodes bg in
        let warm_start =
          Compact.Types.make_labeling bg ~gamma:0. ~optimal:false
            ~lower_bound:0. ~solve_time:0. ~method_name:"all-vh"
            (Array.make n Compact.Types.VH)
        in
        let oct = Compact.Label_oct.solve ~gamma:1.0 bg in
        let mip = Compact.Label_mip.solve ~gamma:1.0 ~warm_start bg in
        check tb "optimal" true mip.optimal;
        check ti "semiperimeter of the optimum"
          (Compact.Types.semiperimeter oct)
          (Compact.Types.semiperimeter mip);
        check ti "S" 7 (Compact.Types.semiperimeter mip));
    Alcotest.test_case "mip trace records convergence" `Quick (fun () ->
        let bg = graph_of_expr (e "(a ^ b) | c") in
        let mip = Compact.Label_mip.solve ~gamma:0.5 bg in
        check tb "has trace" true (mip.trace <> []));
    qcheck_case "all solvers produce valid labelings" expr_gen (fun f ->
        let bg = graph_of_expr f in
        List.for_all
          (fun labeling -> labeling_valid bg labeling)
          [
            Compact.Label_oct.solve bg;
            Compact.Label_oct.greedy bg;
            Compact.Label_mip.solve bg;
            Compact.Label_heuristic.solve bg;
          ]);
    qcheck_case "oct-exact semiperimeter <= greedy" expr_gen (fun f ->
        let bg = graph_of_expr f in
        Compact.Types.semiperimeter (Compact.Label_oct.solve bg)
        <= Compact.Types.semiperimeter (Compact.Label_oct.greedy bg));
  ]

let constrained_tests =
  [
    Alcotest.test_case "capacity constraints are honoured" `Quick (fun () ->
        let bg = graph_of_expr (e "(a & b) | c") in
        (* Unconstrained fig2 optimum is 3 rows x 2 cols; cap the rows. *)
        let labeling =
          Compact.Label_mip.solve ~alignment:true ~max_rows:3 ~max_cols:3 bg
        in
        check tb "rows" true (labeling.rows <= 3);
        check tb "cols" true (labeling.cols <= 3);
        check tb "valid" true (labeling_valid ~alignment:true bg labeling));
    Alcotest.test_case "tight but feasible capacity found" `Quick (fun () ->
        let bg = graph_of_expr (e "a ^ b ^ c") in
        (* All-VH always fits in n x n. *)
        let n = Compact.Preprocess.num_bdd_nodes bg in
        let labeling = Compact.Label_mip.solve ~max_rows:n ~max_cols:n bg in
        check tb "valid" true (labeling_valid bg labeling));
    Alcotest.test_case "infeasible capacity reported" `Quick (fun () ->
        let bg = graph_of_expr (e "(a & b) | c") in
        (* 4 graph nodes can never fit on 1 wordline + 1 bitline. *)
        check tb "raises" true
          (match Compact.Label_mip.solve ~max_rows:1 ~max_cols:1 bg with
           | exception Compact.Label_mip.Infeasible _ -> true
           | _ -> false));
    Alcotest.test_case "capacity can force a taller-thinner design" `Quick
      (fun () ->
         let bg = graph_of_expr (e "(a ^ b) | (b & c) | (a & c)") in
         let free = Compact.Label_mip.solve ~gamma:0.5 bg in
         let cap = max 1 (free.cols - 1) in
         match Compact.Label_mip.solve ~gamma:0.5 ~max_cols:cap bg with
         | labeling ->
           check tb "cols capped" true (labeling.cols <= cap);
           check tb "valid" true (labeling_valid bg labeling)
         | exception Compact.Label_mip.Infeasible _ -> ());
  ]

(* ------------------------------------------------------------------ *)

(* [Balance.choose_signs] as it was before the bitset DP: one parent per
   step and partial sum, recorded by an ascending scan. The reference for
   the bitset version, which must return the same signs. *)
let reference_choose_signs ~base deltas =
  let k = Array.length deltas in
  let total = Array.fold_left (fun acc d -> acc + abs d) 0 deltas in
  let range = (2 * total) + 1 in
  if k = 0 then [||]
  else if k * range <= Compact.Balance.exact_dp_limit then begin
    let reach = Array.make range false in
    let parent = Array.make_matrix k range 0 in
    reach.(total) <- true;
    for i = 0 to k - 1 do
      let next = Array.make range false in
      for s = 0 to range - 1 do
        if reach.(s) then begin
          let plus = s + deltas.(i) and minus = s - deltas.(i) in
          if plus >= 0 && plus < range && not next.(plus) then begin
            next.(plus) <- true;
            parent.(i).(plus) <- s
          end;
          if minus >= 0 && minus < range && not next.(minus) then begin
            next.(minus) <- true;
            parent.(i).(minus) <- s
          end
        end
      done;
      Array.blit next 0 reach 0 range
    done;
    let target = -base + total in
    let best = ref (-1) in
    for s = 0 to range - 1 do
      if
        reach.(s)
        && (!best < 0 || abs (s - target) < abs (!best - target))
      then best := s
    done;
    let signs = Array.make k 1 in
    let s = ref !best in
    for i = k - 1 downto 0 do
      let prev = parent.(i).(!s) in
      signs.(i) <- (if !s - prev = deltas.(i) then 1 else -1);
      s := prev
    done;
    signs
  end
  else begin
    let order = Array.init k (fun i -> i) in
    Array.sort (fun a b -> compare (abs deltas.(b)) (abs deltas.(a))) order;
    let signs = Array.make k 1 in
    let sum = ref base in
    Array.iter
      (fun i ->
         if abs (!sum + deltas.(i)) <= abs (!sum - deltas.(i)) then begin
           signs.(i) <- 1;
           sum := !sum + deltas.(i)
         end
         else begin
           signs.(i) <- -1;
           sum := !sum - deltas.(i)
         end)
      order;
    signs
  end

(* A base and up to 12 deltas, drawn so that negatives, zeros and
   repeated values are common; 63 shifts the bitset by exactly one word
   on 64-bit hosts. *)
let signs_gen =
  QCheck2.Gen.(
    pair (int_range (-60) 60)
      (array_size (int_range 0 12)
         (frequency
            [
              3, int_range (-40) 40;
              1, return 0;
              1, oneofl [ 7; -7; 63; -64 ];
            ])))

(* [k] deltas of alternating sign whose magnitudes sum to [total]. *)
let deltas_summing ~k ~total =
  Array.init k (fun i ->
      let d = if i = k - 1 then total - (total / k * (k - 1)) else total / k in
      if i mod 2 = 0 then d else -d)

(* A BDD graph record around a bare graph: [orient] and the upgrade
   index read only its graph, terminal and roots. *)
let bare_graph ?(roots = []) ~n ~terminal edges =
  {
    Compact.Types.graph = Graphs.Ugraph.of_edges ~n edges;
    inputs = [||];
    edges = [||];
    terminal;
    roots;
    node_names = Array.make n "x";
  }

(* [orient]'s semiperimeter and maximum dimension with [v] added to the
   transversal. *)
let orient_s_d ~alignment bg ~transversal v =
  let transversal = Array.copy transversal in
  transversal.(v) <- true;
  let _, rows, cols =
    Compact.Types.counts (Compact.Balance.orient ~alignment bg ~transversal)
  in
  rows + cols, max rows cols

(* The moves the index prices differently from [orient], as
   (node, index's S and D, orient's S and D). *)
let index_mismatches ~alignment bg ~transversal nodes =
  let index = Compact.Balance.upgrade_index ~alignment bg ~transversal in
  List.filter_map
    (fun v ->
       let got = Compact.Balance.score index v
       and want = orient_s_d ~alignment bg ~transversal v in
       if got = want then None else Some (v, got, want))
    (List.filter (fun v -> not transversal.(v)) nodes)

(* A random graph with a random terminal and up to four roots (some
   constant), and a random superset of [Oct.greedy]'s transversal:
   [extra.(v) = 0] adds v. *)
let residual_gen =
  QCheck2.Gen.(
    int_range 1 24 >>= fun n ->
    let node = int_bound (n - 1) in
    quad
      (list_size (int_range 0 (2 * n)) (pair node node))
      (pair node (list_size (int_range 0 4) (option node)))
      (array_size (return n) (int_bound 4))
      bool)

let scored_as_orient (edges, (terminal, roots), extra, alignment) =
  let n = Array.length extra in
  let roots =
    List.mapi
      (fun i r ->
         ( Printf.sprintf "r%d" i,
           match r with
           | Some v -> Compact.Types.Node v
           | None -> Compact.Types.Const_false ))
      roots
  in
  let bg = bare_graph ~n ~terminal ~roots edges in
  let transversal = Array.map (fun x -> x = 0) extra in
  List.iter
    (fun v -> transversal.(v) <- true)
    (Graphs.Oct.greedy bg.graph).transversal;
  index_mismatches ~alignment bg ~transversal (List.init n Fun.id) = []

let balance_tests =
  [
    Alcotest.test_case "balances two free components" `Quick (fun () ->
        (* Graph: two disjoint stars K1,3; without flipping, both centres
           could land on the same side giving D = 6; balancing yields 4/4. *)
        let g =
          Graphs.Ugraph.of_edges ~n:8
            [ 0, 1; 0, 2; 0, 3; 4, 5; 4, 6; 4, 7 ]
        in
        let bg =
          {
            Compact.Types.graph = g;
            inputs = [||];
            edges = [||];
            terminal = 1;
            roots = [];
            node_names = Array.make 8 "x";
          }
        in
        let transversal = Array.make 8 false in
        let labels = Compact.Balance.orient bg ~transversal in
        let rows =
          Array.fold_left
            (fun acc l ->
               if l = Compact.Types.H || l = Compact.Types.VH then acc + 1
               else acc)
            0 labels
        in
        check ti "balanced rows" 4 rows);
    Alcotest.test_case "a transversal that leaves an odd cycle is rejected"
      `Quick (fun () ->
        let g = Graphs.Ugraph.of_edges ~n:4 [ 0, 1; 1, 2; 2, 0; 2, 3 ] in
        let bg =
          {
            Compact.Types.graph = g;
            inputs = [||];
            edges = [||];
            terminal = 0;
            roots = [];
            node_names = Array.make 4 "x";
          }
        in
        let orient transversal =
          match Compact.Balance.orient bg ~transversal with
          | exception Invalid_argument _ -> None
          | labels -> Some labels
        in
        check tb "triangle kept: raises" true
          (orient [| false; false; false; true |] = None);
        check tb "triangle cut: labels" true
          (orient [| false; false; true; false |] <> None));
    qcheck_case "the upgrade index prices every move as orient does"
      ~count:200 residual_gen scored_as_orient;
    Alcotest.test_case "an aligned tie upgrades colour 0, the smallest node's"
      `Quick (fun () ->
        (* A star whose centre 3 is its largest node: leaves 0-2 take
           colour 0. The terminal (3) and root 0 are aligned on opposite
           colours, one each, so root 0 becomes VH and the centre H. *)
        let bg =
          bare_graph ~n:4 ~terminal:3
            ~roots:[ "f", Compact.Types.Node 0 ]
            [ 0, 3; 1, 3; 2, 3 ]
        in
        let transversal = Array.make 4 false in
        check tb "labels" true
          (Compact.Balance.orient ~alignment:true bg ~transversal
           = Compact.Types.[| VH; V; V; H |]);
        let index =
          Compact.Balance.upgrade_index ~alignment:true bg ~transversal
        in
        List.iter
          (fun (v, s_d) ->
             check (Alcotest.pair ti ti) "orient's S, D" s_d
               (orient_s_d ~alignment:true bg ~transversal v);
             check (Alcotest.pair ti ti) "index's S, D" s_d
               (Compact.Balance.score index v))
          [ 0, (5, 3); 1, (6, 3); 2, (6, 3); 3, (5, 3) ]);
    Alcotest.test_case "the index keeps orient's S and D past exact_dp_limit"
      `Quick (fun () ->
        (* 2,000 two-leaf stars, the centre first in even stars and second
           in odd ones: deltas of -1 and +1, 2,000 × 4,001 past the DP's
           limit. The greedy signs then follow the deltas' order. *)
        let stars = 2000 in
        let n = 3 * stars in
        let edges =
          List.concat
            (List.init stars (fun i ->
                 let a = 3 * i in
                 if i mod 2 = 0 then [ a, a + 1; a, a + 2 ]
                 else [ a, a + 1; a + 1, a + 2 ]))
        in
        check tb "past the limit" true
          (stars * ((2 * stars) + 1) > Compact.Balance.exact_dp_limit);
        let sample = List.init 60 (fun i -> (100 * i) + (i mod 3)) in
        List.iter
          (fun alignment ->
             let bg = bare_graph ~n ~terminal:4 edges in
             check tb "no mismatch" true
               (index_mismatches ~alignment bg
                  ~transversal:(Array.make n false) sample
                = []))
          [ false; true ]);
    qcheck_case "bitset sign DP matches the parent-matrix DP" ~count:200
      signs_gen (fun (base, deltas) ->
        Compact.Balance.choose_signs ~base deltas
        = reference_choose_signs ~base deltas);
    Alcotest.test_case "sign DP on both sides of exact_dp_limit" `Quick
      (fun () ->
         (* 50 deltas: k × (2·total + 1) is 4_999_950 at total 49_999 (the
            DP) and 5_000_050 at total 50_000 (the greedy fallback). *)
         List.iter
           (fun (total, exact) ->
              let deltas = deltas_summing ~k:50 ~total in
              check tb "side of the limit" exact
                (50 * ((2 * total) + 1) <= Compact.Balance.exact_dp_limit);
              List.iter
                (fun base ->
                   check (Alcotest.array ti) "signs"
                     (reference_choose_signs ~base deltas)
                     (Compact.Balance.choose_signs ~base deltas))
                [ 0; 17; -999; 60_000 ])
           [ 49_999, true; 50_000, false ]);
  ]

(* ------------------------------------------------------------------ *)

(* A full binary tree of depth 3-5 over 8 literals, as loadgen draws
   them: BDD graphs of tens of nodes. *)
let tree_expr_gen =
  let open QCheck2.Gen in
  let rec tree depth =
    if depth = 0 then
      map2
        (fun neg v ->
           if neg then Logic.Expr.not_ (Logic.Expr.var v) else Logic.Expr.var v)
        bool
        (oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ])
    else
      map3
        (fun op a b ->
           match op with
           | 0 -> Logic.Expr.and_ [ a; b ]
           | 1 -> Logic.Expr.or_ [ a; b ]
           | _ -> Logic.Expr.xor a b)
        (int_bound 2) (tree (depth - 1)) (tree (depth - 1))
  in
  int_range 3 5 >>= tree

(* The SBDD of one to three expressions, one output each. *)
let sbdd_of_exprs fs =
  let outputs = List.mapi (fun i _ -> Printf.sprintf "o%d" i) fs in
  let inputs = List.sort_uniq compare (List.concat_map Logic.Expr.vars fs) in
  let nl =
    Logic.Netlist.create ~name:"t" ~inputs ~outputs
      (List.map2 Logic.Netlist.n_expr outputs fs)
  in
  Bdd.Sbdd.of_netlist nl

let graph_of_exprs fs = Compact.Preprocess.of_sbdd (sbdd_of_exprs fs)

(* The bulk-built graph against the incremental construction it
   replaced: the same neighbours in the same order at every vertex, and
   the same edge literals, roots and node names. *)
let matches_incremental sbdd =
  let bg = Compact.Preprocess.of_sbdd sbdd
  and old = Incremental_graph.of_sbdd sbdd in
  let n = Graphs.Ugraph.num_nodes bg.graph in
  n = Incremental_graph.Ugraph.num_nodes old.graph
  && Graphs.Ugraph.num_edges bg.graph
     = Incremental_graph.Ugraph.num_edges old.graph
  && List.for_all
       (fun v ->
          List_walks.neighbors bg.graph v
          = Incremental_graph.Ugraph.neighbors old.graph v)
       (List.init n Fun.id)
  && edge_literals bg = old.edge_literals
  && bg.terminal = old.terminal && bg.roots = old.roots
  && bg.node_names = old.node_names

let graph_oracle_tests =
  [
    Alcotest.test_case "the 17 Table-I circuits match the incremental oracle"
      `Quick (fun () ->
          List.iter
            (fun (entry : Circuits.Suite.entry) ->
               check tb entry.name true
                 (matches_incremental
                    (Bdd.Sbdd.of_netlist (entry.generate ()))))
            Circuits.Suite.all);
    qcheck_case "random expressions match the incremental oracle" ~count:100
      QCheck2.Gen.(list_size (int_range 1 3) tree_expr_gen)
      (fun fs -> matches_incremental (sbdd_of_exprs fs));
  ]

(* What the indexed search and the orient oracle must agree on. *)
let same_labeling (a : Compact.Types.labeling) (b : Compact.Types.labeling) =
  a.labels = b.labels && a.objective = b.objective && a.optimal = b.optimal
  && a.lower_bound = b.lower_bound

let oracle_agrees ~alignment bg =
  List.for_all
    (fun gamma ->
       same_labeling
         (Compact.Label_heuristic.solve ~alignment ~gamma bg)
         (Orient_heuristic.solve ~alignment ~gamma bg))
    [ 0.; 0.5; 1. ]

let heuristic_tests =
  [
    qcheck_case "the indexed search returns the orient oracle's labeling"
      ~count:40
      QCheck2.Gen.(pair (list_size (int_range 1 3) tree_expr_gen) bool)
      (fun (fs, alignment) -> oracle_agrees ~alignment (graph_of_exprs fs));
    Alcotest.test_case "dec, c5315 and i2c match the orient oracle" `Quick
      (fun () ->
         (* dec has 256 roots; c5315 accepts 2 moves; i2c accepts 10 over 3
            rounds, so its index is rebuilt mid-round. *)
         List.iter
           (fun name ->
              let bg =
                Compact.Preprocess.of_sbdd
                  (Bdd.Sbdd.of_netlist ((Circuits.Suite.find name).generate ()))
              in
              check tb name true
                (same_labeling
                   (Compact.Label_heuristic.solve ~alignment:true bg)
                   (Orient_heuristic.solve ~alignment:true bg)))
           [ "dec"; "c5315"; "i2c" ]);
  ]

(* ------------------------------------------------------------------ *)

let mapping_tests =
  [
    Alcotest.test_case "design dimensions match the labeling" `Quick
      (fun () ->
         let bg = Lazy.force fig2_graph in
         let labeling = Compact.Label_mip.solve ~alignment:true bg in
         let design = Compact.Mapping.run bg labeling in
         check ti "rows" labeling.rows (Crossbar.Design.rows design);
         check ti "cols" (max labeling.cols 1) (Crossbar.Design.cols design));
    Alcotest.test_case "every edge is programmed + one fuse per VH" `Quick
      (fun () ->
         let bg = Lazy.force fig2_graph in
         let labeling = Compact.Label_mip.solve ~alignment:true bg in
         let design = Compact.Mapping.run bg labeling in
         check ti "literal junctions"
           (List.length (edge_literals bg))
           (Crossbar.Design.num_literal_junctions design);
         check ti "fuses" labeling.vh_count
           (Crossbar.Design.num_on_junctions design));
    Alcotest.test_case "alignment places ports on rows" `Quick (fun () ->
        let bg = graph_of_expr (e "(a & b) ^ c") in
        let labeling = Compact.Label_mip.solve ~alignment:true bg in
        let design = Compact.Mapping.run bg labeling in
        (match Crossbar.Design.input design with
         | Crossbar.Design.Row _ -> ()
         | Crossbar.Design.Col _ -> Alcotest.fail "input on a bitline");
        List.iter
          (fun (_, w) ->
             match w with
             | Crossbar.Design.Row _ -> ()
             | Crossbar.Design.Col _ -> Alcotest.fail "output on a bitline")
          (Crossbar.Design.outputs design));
    Alcotest.test_case "mismatched labeling rejected" `Quick (fun () ->
        let bg = Lazy.force fig2_graph in
        let other = graph_of_expr (e "a & b & c & a") in
        let labeling = Compact.Label_mip.solve other in
        check tb "raises" true
          (match Compact.Mapping.run bg labeling with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* The immutable design against the Hashtbl design it replaced
   (test/hashtbl_design.ml): every writer must give the same design. *)

module Old = Hashtbl_design

let old_cells d =
  let acc = ref [] in
  Old.Design.iter_programmed d (fun i j l -> acc := (i, j, l) :: !acc);
  List.rev !acc

let new_cells d =
  let acc = ref [] in
  Crossbar.Design.iter_programmed d (fun i j l -> acc := (i, j, l) :: !acc);
  List.rev !acc

(* The rows [get] reads in full: every row of an array of up to 2^20
   junctions; of a larger one the first, the last and 30 seeded rows. *)
let probe_rows ~rows ~cols =
  if rows * cols <= 1 lsl 20 then List.init rows Fun.id
  else
    let st = Random.State.make [| rows; cols |] in
    0 :: (rows - 1) :: List.init 30 (fun _ -> Random.State.int st rows)

(* What a reader sees of a design: its ports, its junctions in order, the
   counts, the variables, and [get] at every programmed junction of
   either design and along the probed rows. *)
let same_design old d =
  let module D = Crossbar.Design in
  let rows = D.rows d and cols = D.cols d in
  let cells = new_cells d in
  let get_agrees (row, col, _) =
    Crossbar.Literal.equal (Old.Design.get old ~row ~col) (D.get d ~row ~col)
  in
  Old.Design.rows old = rows
  && Old.Design.cols old = cols
  && Old.Design.input old = D.input d
  && Old.Design.outputs old = D.outputs d
  && old_cells old = cells
  && Old.Design.num_programmed old = D.num_programmed d
  && Old.Design.num_literal_junctions old = D.num_literal_junctions d
  && Old.Design.num_on_junctions old = D.num_on_junctions d
  && Old.Design.variables old = D.variables d
  && List.for_all get_agrees cells
  && List.for_all get_agrees (old_cells old)
  && List.for_all
       (fun row ->
          List.for_all
            (fun col -> get_agrees (row, col, ()))
            (List.init cols Fun.id))
       (probe_rows ~rows ~cols)

(* Every wire's reach under [env], by a search over the old design's
   conducting junctions: what [Eval] computes, one lane at a time. *)
let old_reach old env =
  let rows = Old.Design.rows old and cols = Old.Design.cols old in
  let adj = Array.make (rows + cols) [] in
  Old.Design.iter_programmed old (fun i j l ->
      if Crossbar.Literal.conducts l env then begin
        adj.(i) <- (rows + j) :: adj.(i);
        adj.(rows + j) <- i :: adj.(rows + j)
      end);
  let reached = Array.make (rows + cols) false in
  let stack =
    ref
      [ (match Old.Design.input old with
          | Crossbar.Design.Row i -> i
          | Crossbar.Design.Col j -> rows + j) ]
  in
  while !stack <> [] do
    let w = List.hd !stack in
    stack := List.tl !stack;
    if not reached.(w) then begin
      reached.(w) <- true;
      stack := adj.(w) @ !stack
    end
  done;
  reached

(* One sweep of the new design compiled over [inputs], 16 seeded
   assignments, against [old_reach] on each. *)
let reach_agrees ~inputs old d =
  let index = Hashtbl.create 64 in
  Array.iteri (fun k v -> Hashtbl.replace index v k) inputs;
  let t = Crossbar.Eval.compile d ~index:(Hashtbl.find index) in
  let batch = 16 in
  let st = Random.State.make [| Array.length inputs; batch |] in
  let points =
    Array.init batch (fun _ -> Array.map (fun _ -> Random.State.bool st) inputs)
  in
  let words =
    Array.mapi
      (fun k _ ->
         let w = ref 0 in
         Array.iteri (fun l p -> if p.(k) then w := !w lor (1 lsl l)) points;
         !w)
      inputs
  in
  let reach = Crossbar.Eval.sweep t words ~batch in
  let rows = Crossbar.Design.rows d and cols = Crossbar.Design.cols d in
  let wire w =
    Crossbar.Eval.wire t
      (if w < rows then Crossbar.Design.Row w else Crossbar.Design.Col (w - rows))
  in
  List.for_all
    (fun l ->
       let reached = old_reach old (fun v -> points.(l).(Hashtbl.find index v)) in
       List.for_all
         (fun w -> reached.(w) = ((reach.(wire w) lsr l) land 1 = 1))
         (List.init (rows + cols) Fun.id))
    (List.init batch Fun.id)

(* Names that need escapes in the payload. *)
let awkward_vars = [| "a"; "b"; "q\"t"; "b\\s"; "c\001"; "d\127"; "\xc3\xbc" |]

let literal_gen =
  QCheck2.Gen.(
    frequency
      [ 1, pure Crossbar.Literal.Off;
        1, pure Crossbar.Literal.On;
        2, map (fun v -> Crossbar.Literal.Pos v) (oneofa awkward_vars);
        2, map (fun v -> Crossbar.Literal.Neg v) (oneofa awkward_vars) ])

let wire_gen ~rows ~cols =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> Crossbar.Design.Row i) (int_bound (rows - 1));
        map (fun j -> Crossbar.Design.Col j) (int_bound (cols - 1)) ])

(* Up to 60 writes on an array of at most 6 × 6, so that junctions are
   written again and erased; ports on either kind of wire, or on a row
   when [row_input]. *)
let writes_gen ?(row_input = false) () =
  QCheck2.Gen.(
    let* rows = int_range 1 6 in
    let* cols = int_range 1 6 in
    let* input =
      if row_input then map (fun i -> Crossbar.Design.Row i) (int_bound (rows - 1))
      else wire_gen ~rows ~cols
    in
    let* outputs =
      list_size (int_bound 3) (pair (oneofa awkward_vars) (wire_gen ~rows ~cols))
    in
    let+ writes =
      list_size (int_bound 60)
        (triple (int_bound (rows - 1)) (int_bound (cols - 1)) literal_gen)
    in
    rows, cols, input, outputs, writes)

(* The same writes through [create] + [set] and through the builder. *)
let both (rows, cols, input, outputs, writes) =
  let old = Old.Design.create ~rows ~cols ~input ~outputs in
  List.iter (fun (row, col, l) -> Old.Design.set old ~row ~col l) writes;
  ( old,
    Crossbar.Design.build ~rows ~cols ~input ~outputs (fun set ->
        List.iter (fun (row, col, l) -> set ~row ~col l) writes) )

let faults_gen ~rows ~cols =
  QCheck2.Gen.(
    list_size (int_bound 8)
      (map3
         (fun on r c ->
            if on then Crossbar.Fault.Stuck_on (r, c)
            else Crossbar.Fault.Stuck_off (r, c))
         bool (int_bound (rows - 1)) (int_bound (cols - 1))))

let shuffled n = QCheck2.Gen.shuffle_a (Array.init n Fun.id)

let payload_report =
  lazy (Compact.Pipeline.synthesize_expr ~name:"r" (e "a & b")).report

let design_oracle_tests =
  [
    Alcotest.test_case "the 17 Table-I designs match the Hashtbl oracle"
      `Quick (fun () ->
          List.iter
            (fun (entry : Circuits.Suite.entry) ->
               let sbdd = Bdd.Sbdd.of_netlist (entry.generate ()) in
               let bg = Compact.Preprocess.of_sbdd sbdd in
               let labeling = Compact.Label_oct.greedy ~alignment:true bg in
               let d = Compact.Mapping.run bg labeling in
               let old =
                 Old.Mapping.run
                   ~edge_literals:(Incremental_graph.of_sbdd sbdd).edge_literals
                   bg labeling
               in
               let report =
                 Compact.Report.of_design ~circuit:entry.name ~bdd_graph:bg
                   ~labeling ~synthesis_time:0. d
               in
               check tb (entry.name ^ " design") true (same_design old d);
               check tb (entry.name ^ " reach") true
                 (reach_agrees ~inputs:bg.inputs old d);
               check Alcotest.string (entry.name ^ " payload")
                 (Old.Payload.synth_payload ~key:entry.name ~design:old ~report)
                 (Server.Protocol.synth_payload ~key:entry.name ~design:d
                    ~report))
            Circuits.Suite.all);
    qcheck_case "the builder equals create + set on random writes" ~count:300
      (writes_gen ()) (fun case ->
        let old, d = both case in
        let report = Lazy.force payload_report in
        same_design old d
        && Old.Payload.synth_payload ~key:"k" ~design:old ~report
           = Server.Protocol.synth_payload ~key:"k" ~design:d ~report);
    qcheck_case "Fault.inject equals copy + set" ~count:200
      QCheck2.Gen.(
        let* ((rows, cols, _, _, _) as case) = writes_gen () in
        let+ faults = faults_gen ~rows ~cols in
        case, faults)
      (fun (case, faults) ->
        let old, d = both case in
        same_design (Old.Fault.inject old faults) (Crossbar.Fault.inject d faults));
    qcheck_case "permute equals the Hashtbl permute" ~count:200
      QCheck2.Gen.(
        let* ((rows, cols, _, _, _) as case) = writes_gen () in
        let* row_perm = shuffled rows in
        let+ col_perm = shuffled cols in
        case, row_perm, col_perm)
      (fun (case, row_perm, col_perm) ->
        let old, d = both case in
        same_design
          (Old.Design.permute old ~row_perm ~col_perm)
          (Crossbar.Design.permute d ~row_perm ~col_perm));
    qcheck_case "Place.apply equals the Hashtbl apply" ~count:200
      QCheck2.Gen.(
        let* ((rows, cols, _, _, _) as case) = writes_gen () in
        let* prows = int_range rows (rows + 2) in
        let* pcols = int_range cols (cols + 2) in
        let* row_map = shuffled prows in
        let* col_map = shuffled pcols in
        let* faults = faults_gen ~rows:prows ~cols:pcols in
        let* broken_rows = list_size (int_bound 1) (int_bound (prows - 1)) in
        let+ broken_cols = list_size (int_bound 1) (int_bound (pcols - 1)) in
        ( case,
          Crossbar.Defect_map.create ~rows:prows ~cols:pcols ~broken_rows
            ~broken_cols faults,
          { Compact.Place.row_map = Array.sub row_map 0 rows;
            col_map = Array.sub col_map 0 cols } ))
      (fun (case, map, p) ->
        let old, d = both case in
        same_design (Old.Place.apply map p old) (Compact.Place.apply map p d));
    qcheck_case "merge_diagonal equals the Hashtbl merge" ~count:200
      QCheck2.Gen.(list_size (int_range 1 3) (writes_gen ~row_input:true ()))
      (fun cases ->
        let olds, ds = List.split (List.map both cases) in
        same_design
          (Old.Pipeline.merge_diagonal olds)
          (Compact.Pipeline.merge_diagonal ds));
  ]

(* ------------------------------------------------------------------ *)
(* The labeling rungs' slot walks against the list walks they replaced
   (test/list_walks.ml): the same transversals, indexes and covers. *)

(* [f ()] and what it added to the counter [name]. *)
let counted name f =
  let was = Obs.metrics_enabled () in
  Obs.set_metrics_enabled true;
  let read () =
    Option.value ~default:0
      (List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.m_counters)
  in
  let before = read () in
  let r = f () in
  let after = read () in
  Obs.set_metrics_enabled was;
  r, after - before

let same_oct (a : Graphs.Oct.result) (b : Graphs.Oct.result) =
  a.transversal = b.transversal && a.optimal = b.optimal
  && a.lower_bound = b.lower_bound

let same_index (a : Compact.Balance.upgrade_index)
    (b : List_walks.Balance.upgrade_index) =
  a.comp = b.comp && a.color = b.color && a.disc = b.disc && a.low = b.low
  && a.parent = b.parent && a.is_aligned = b.is_aligned && a.sub = b.sub
  && a.sub_aligned = b.sub_aligned && a.sub_min = b.sub_min
  && a.root = b.root && a.free_slot = b.free_slot && a.free = b.free
  && a.vh = b.vh && a.base = b.base

(* Both covers under the same node allowance, and the nodes each
   expanded. *)
let same_cover ~nodes g =
  let budget () = Resilience.Budget.create ~nodes () in
  let (a : Graphs.Vertex_cover.result), a_nodes =
    counted "vc.nodes" (fun () -> Graphs.Vertex_cover.solve ~budget:(budget ()) g)
  in
  let (b : Graphs.Vertex_cover.result), b_nodes =
    List_walks.Vertex_cover.solve ~budget:(budget ()) g
  in
  a.cover = b.cover && a.size = b.size && a.lower_bound = b.lower_bound
  && a.optimal = b.optimal && a_nodes = b_nodes

(* Greedy OCT, the upgrade index of its transversal (and of that plus
   [extra], alignment on and off) and the cover of G□K2 on graphs of up
   to [Label_heuristic.exact_oct_node_threshold] nodes, the ones the
   flow covers. *)
let walks_agree ?(extra = []) ~nodes (bg : Compact.Types.bdd_graph) =
  let g = bg.graph in
  let oct = Graphs.Oct.greedy g in
  let transversal = Array.make (Graphs.Ugraph.num_nodes g) false in
  List.iter (fun v -> transversal.(v) <- true) (oct.transversal @ extra);
  same_oct oct (List_walks.Oct.greedy g)
  && List.for_all
       (fun alignment ->
          same_index
            (Compact.Balance.upgrade_index ~alignment bg ~transversal)
            (List_walks.Balance.upgrade_index ~alignment bg ~transversal))
       [ false; true ]
  && (Graphs.Ugraph.num_nodes g > Compact.Label_heuristic.exact_oct_node_threshold
      || same_cover ~nodes (Graphs.Oct.with_k2 g))

let random_graph_gen =
  QCheck2.Gen.(
    let* n = int_range 1 30 in
    let vertex = int_bound (n - 1) in
    let* edges = list_size (int_bound 80) (pair vertex vertex) in
    let* terminal = vertex in
    let* roots = list_size (int_bound 3) vertex in
    let+ extra = list_size (int_bound 3) vertex in
    ( bare_graph ~n ~terminal
        ~roots:(List.mapi (fun i v -> Printf.sprintf "o%d" i, Compact.Types.Node v) roots)
        edges,
      extra ))

let walk_oracle_tests =
  [
    Alcotest.test_case "the 17 Table-I graphs match the list walks" `Quick
      (fun () ->
         List.iter
           (fun (entry : Circuits.Suite.entry) ->
              let bg =
                Compact.Preprocess.of_sbdd
                  (Bdd.Sbdd.of_netlist (entry.generate ()))
              in
              check tb entry.name true (walks_agree ~nodes:512 bg))
           Circuits.Suite.all);
    qcheck_case "random graphs match the list walks" ~count:200
      random_graph_gen (fun (bg, extra) ->
        walks_agree ~extra ~nodes:4096 bg
        && same_cover ~nodes:4096 bg.graph);
    qcheck_case "random expressions match the list walks" ~count:60
      QCheck2.Gen.(list_size (int_range 1 3) tree_expr_gen)
      (fun fs -> walks_agree ~nodes:4096 (graph_of_exprs fs));
  ]

(* ------------------------------------------------------------------ *)

let verify_expr f (r : Compact.Pipeline.result) =
  let inputs = Logic.Expr.vars f in
  if inputs = [] then true
  else begin
    let reference =
      Logic.Truth_table.of_exprs ~inputs [ "f_out", f ]
    in
    Crossbar.Verify.against_table r.design ~reference = Crossbar.Verify.Ok
  end

let pipeline_tests =
  [
    Alcotest.test_case "fig2 report" `Quick (fun () ->
        let r = Compact.Pipeline.synthesize_expr ~name:"f" (e "(a & b) | c") in
        check ti "nodes" 4 r.report.bdd_nodes;
        check ti "S" 5 r.report.semiperimeter;
        check tb "optimal" true r.report.optimal);
    Alcotest.test_case "multi-output synthesis verifies" `Quick (fun () ->
        let nl = Circuits.Arith.ripple_adder ~bits:3 () in
        let r = Compact.Pipeline.synthesize nl in
        check tb "verified" true
          (Crossbar.Verify.against_table r.design
             ~reference:(Logic.Netlist.to_truth_table nl)
           = Crossbar.Verify.Ok));
    Alcotest.test_case "separate robdds merged design verifies" `Quick
      (fun () ->
         let nl = Circuits.Arith.ripple_adder ~bits:2 () in
         let _, merged = Compact.Pipeline.synthesize_separate_robdds nl in
         check tb "verified" true
           (Crossbar.Verify.against_table merged
              ~reference:(Logic.Netlist.to_truth_table nl)
            = Crossbar.Verify.Ok));
    Alcotest.test_case "constant outputs synthesise and verify" `Quick
      (fun () ->
         let nl =
           Logic.Netlist.create ~name:"consts" ~inputs:[ "a" ]
             ~outputs:[ "zero"; "one"; "id" ]
             [
               Logic.Netlist.n_expr "zero" Logic.Expr.fls;
               Logic.Netlist.n_expr "one" Logic.Expr.tru;
               Logic.Netlist.n_buf "id" "a";
             ]
         in
         let r = Compact.Pipeline.synthesize nl in
         check tb "verified" true
           (Crossbar.Verify.against_table r.design
              ~reference:(Logic.Netlist.to_truth_table nl)
            = Crossbar.Verify.Ok));
    Alcotest.test_case "every solver verifies on a decoder" `Quick (fun () ->
        let nl = Circuits.Control.decoder ~select_bits:3 () in
        let reference = Logic.Netlist.to_truth_table nl in
        List.iter
          (fun solver ->
             let options =
               { Compact.Pipeline.default_options with solver; time_limit = 5. }
             in
             let r = Compact.Pipeline.synthesize ~options nl in
             check tb "verified" true
               (Crossbar.Verify.against_table r.design ~reference
                = Crossbar.Verify.Ok))
          [
            Compact.Pipeline.Oct_exact;
            Compact.Pipeline.Oct_greedy;
            Compact.Pipeline.Mip;
            Compact.Pipeline.Heuristic;
          ]);
    Alcotest.test_case "gamma=1 semiperimeter is n + k (<= heuristics)" `Quick
      (fun () ->
         let nl = Circuits.Control.opcode_decoder () in
         let options =
           {
             Compact.Pipeline.default_options with
             gamma = 1.0;
             solver = Compact.Pipeline.Oct_exact;
             time_limit = 10.;
           }
         in
         let r = Compact.Pipeline.synthesize ~options nl in
         check ti "S = n + #VH"
           (r.report.bdd_nodes + r.report.vh_count)
           r.report.semiperimeter);
    Alcotest.test_case "merge_diagonal shares one input row" `Quick
      (fun () ->
         let nl = Circuits.Arith.ripple_adder ~bits:2 () in
         let results, merged =
           Compact.Pipeline.synthesize_separate_robdds nl
         in
         let sum_rows =
           List.fold_left
             (fun acc (r : Compact.Pipeline.result) ->
                acc + Crossbar.Design.rows r.design)
             0 results
         in
         check ti "rows share input"
           (sum_rows - List.length results + 1)
           (Crossbar.Design.rows merged));
    Alcotest.test_case "report gap is zero when optimal" `Quick (fun () ->
        let r = Compact.Pipeline.synthesize_expr ~name:"g" (e "a ^ b ^ c") in
        check tb "optimal" true r.report.optimal;
        check (Alcotest.float 1e-9) "gap" 0. r.report.gap);
    qcheck_case "pipeline output equals the function (all solvers)"
      ~count:40 expr_gen
      (fun f ->
         let r = Compact.Pipeline.synthesize_expr ~name:"f" f in
         verify_expr f r);
    qcheck_case "unaligned synthesis also verifies" ~count:30 expr_gen
      (fun f ->
         let options =
           { Compact.Pipeline.default_options with alignment = false }
         in
         let inputs = Logic.Expr.vars f in
         if inputs = [] then true
         else begin
           let nl =
             Logic.Netlist.create ~name:"u" ~inputs ~outputs:[ "f" ]
               [ Logic.Netlist.n_expr "f" f ]
           in
           let r = Compact.Pipeline.synthesize ~options nl in
           Crossbar.Verify.against_table r.design
             ~reference:(Logic.Netlist.to_truth_table nl)
           = Crossbar.Verify.Ok
         end);
    Alcotest.test_case "path_pristine classification" `Quick (fun () ->
        (* Only a single rung is cacheable: a fallback means an earlier
           rung ran out of wall time or raised. *)
        let p = Compact.Report.path_pristine in
        check tb "single rung" true (p [ "mip" ]);
        check tb "empty" false (p []);
        check tb "ladder fallback" false (p [ "mip"; "heuristic" ]));
  ]

(* MD5 of [Protocol.synth_payload] for [Pipeline.synthesize] at default
   options, on Table-I circuits the heuristic rung labels. A change that
   moves any of these designs fails here; a deliberate one re-pins the
   digest and says why. *)
let payload_goldens =
  [
    "dec", "884f9c9079ea27f55ef7cd2944ebc4a4";
    "priority", "35503f3a903f914bfb6e41608a3a58b9";
    "router", "67344944ebc84c3918d00f6f2e596d60";
    "c7552", "67bb66c8ff01ed39ec15f04726dbef56";
    "c2670", "29b522c8100a1bdbf41f7633706ff311";
    "c5315", "4e3dd4bd02e01b8f2b9a73d064ab7479";
    "i2c", "37cc9029cc40e0836c946e0c4f370177";
    "c499", "5316b577473970e8166a7d2cb099ffb1";
    "c1355", "4278365ca3fe699ded2675f1738838dc";
    "c1908", "ed7742349defc92902a7f9474977339a";
    "arbiter", "2d3842c9d9cf59a109548e7fa3be6b79";
    (* MIP rung, warm-started from the exact OCT. *)
    "ctrl", "3f6f879a6ed06da1b54c25ae356f3a17";
    "cavlc", "adbc5f44f295332c7584b4f85d531181";
  ]

(* Serve-mix requests of loadgen's default stream, one per way the MIP
   rung ends: 24 (51 nodes) has a warm start that meets the bound, so no
   relaxation is solved; in 84 an incumbent meets the bound mid-search;
   28 searches to exhaustion. *)
let expr_payload_goldens =
  [
    ( 24,
      "((((~f ^ ~h) ^ (~c & f)) | ((~e | ~f) & (a ^ f))) ^ (((~b & g) ^ (~h \
       ^ ~c)) & ((~d ^ f) & (h | f))))",
      "b543644c3898d3fc95e790f5c7b6be72" );
    ( 84,
      "((((~c | ~c) & (d ^ f)) ^ ((b ^ d) | (c | f))) & (((~d | ~c) ^ (~b ^ \
       ~f)) | ((~c & ~f) & (f | a))))",
      "2e7283d219124aff3e7feb3d8bf0e3c1" );
    ( 28,
      "((((c | a) | (~e ^ ~d)) ^ ((~c ^ ~e) | (~a & ~f))) & (((g & g) | (d \
       & g)) ^ ((e ^ g) & (~f ^ ~f))))",
      "35fc1fa9c56a9032cf97c8e01962c932" );
  ]

(* The payload of an expression request solved as compactd builds it. *)
let expr_payload ?(options = Compact.Pipeline.default_options) ~key s =
  let r =
    Compact.Pipeline.synthesize ~options
      (Logic.Netlist.of_expr ~name:"expr" (Logic.Parse.expr s))
  in
  Server.Protocol.synth_payload ~key ~design:r.design ~report:r.report

let golden_tests =
  List.map
    (fun (id, s, digest) ->
       Alcotest.test_case (Printf.sprintf "payload of request %d" id) `Quick
         (fun () ->
            let key = Printf.sprintf "request %d" id in
            check Alcotest.string "md5" digest
              (Digest.to_hex (Digest.string (expr_payload ~key s)))))
    expr_payload_goldens
  @ List.map
    (fun (name, digest) ->
       Alcotest.test_case ("payload of " ^ name) `Quick (fun () ->
           let nl = (Circuits.Suite.find name).generate () in
           let r = Compact.Pipeline.synthesize nl in
           let payload =
             Server.Protocol.synth_payload ~key:name ~design:r.design
               ~report:r.report
           in
           check Alcotest.string "md5" digest
             (Digest.to_hex (Digest.string payload))))
    payload_goldens
  @ [
    (* The exact OCT proves these transversal sizes on the default-order
       graphs; a faster or reworked search must keep them. *)
    Alcotest.test_case "exact OCT sizes of ctrl, cavlc, priority, dec" `Quick
      (fun () ->
         List.iter
           (fun (name, k) ->
              let nl = (Circuits.Suite.find name).generate () in
              let g =
                (Compact.Preprocess.of_sbdd (Bdd.Sbdd.of_netlist nl)).graph
              in
              let r = Graphs.Oct.solve g in
              check tb (name ^ " optimal") true r.optimal;
              check ti (name ^ " size") k (List.length r.transversal);
              check tb (name ^ " transversal") true
                (Graphs.Oct.is_transversal g r.transversal))
           [ "ctrl", 1; "cavlc", 1; "priority", 1; "dec", 0 ]);
  ]

(* ------------------------------------------------------------------ *)

(* The minimum objective over all 3^n label arrays that pass
   [check_labeling]: the oracle for the MIP rung on small graphs. *)
let brute_force_objective ~alignment ~gamma (bg : Compact.Types.bdd_graph) =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  let labels = Array.make n Compact.Types.V in
  let best = ref infinity in
  let rec go i =
    if i = n then begin
      if Compact.Types.check_labeling ~alignment bg labels = Ok () then begin
        let _, rows, cols = Compact.Types.counts labels in
        best := min !best (Compact.Types.objective_of ~gamma ~rows ~cols)
      end
    end
    else
      List.iter
        (fun l ->
           labels.(i) <- l;
           go (i + 1))
        Compact.Types.[ V; H; VH ]
  in
  go 0;
  !best

(* The MIP rung at default options on [nl]'s graph, its branch & bound
   under an allowance of [nodes]; the warm start runs as in the rung. *)
let mip_rung_within ~nodes nl =
  let bg = Compact.Preprocess.of_sbdd (Bdd.Sbdd.of_netlist nl) in
  let alignment = true and gamma = 0.5 in
  let warm = Compact.Label_heuristic.solve ~alignment ~gamma bg in
  Compact.Label_mip.solve
    ~budget:(Resilience.Budget.create ~nodes ())
    ~alignment ~gamma ~warm_start:warm bg

let graph_of_circuit nl =
  (Compact.Preprocess.of_sbdd (Bdd.Sbdd.of_netlist nl)).graph

let mip_bound_tests =
  [
    Alcotest.test_case "MIP reaches the brute-force optimum" `Quick
      (fun () ->
         let graphs =
           QCheck2.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:40
             (expr_gen_over [ "a"; "b"; "c"; "d" ])
           |> List.map graph_of_expr
           |> List.filter (fun bg ->
               Compact.Preprocess.num_bdd_nodes bg <= 8)
         in
         (* A trace of one point is the final record alone: the search
            closed at the root, before any relaxation. *)
         let at_root = ref 0 and searched = ref 0 in
         List.iter
           (fun (bg : Compact.Types.bdd_graph) ->
              let k = List.length (Graphs.Oct.solve bg.graph).transversal in
              List.iter
                (fun (gamma, alignment) ->
                   let best = brute_force_objective ~alignment ~gamma bg in
                   let reaches what (l : Compact.Types.labeling) =
                     check (Alcotest.float 1e-9) what best l.objective;
                     check tb (what ^ " optimal") true l.optimal
                   in
                   (* The pipeline's rung: warm-started from the exact OCT,
                      whose proven bound must hold. *)
                   let options =
                     { Compact.Pipeline.default_options with
                       solver = Compact.Pipeline.Mip; gamma; alignment }
                   in
                   let r =
                     Compact.Pipeline.synthesize_graph ~options ~name:"o" bg
                   in
                   reaches "mip rung" r.labeling;
                   let warm =
                     Compact.Label_heuristic.solve ~alignment ~gamma bg
                   in
                   check tb "warm-start bound holds" true
                     (warm.lower_bound <= best +. 1e-9);
                   if List.length r.labeling.trace = 1 then incr at_root
                   else incr searched;
                   (* From the greedy warm start with the OCT cut, the
                      search may stop mid-way at the cut's bound. *)
                   reaches "greedy-started mip"
                     (Compact.Label_mip.solve ~alignment ~gamma ~oct_cut:k bg))
                [ 0., false; 0.5, false; 1., false;
                  0., true; 0.5, true; 1., true ])
           graphs;
         check tb "some searches close at the root" true (!at_root > 0);
         check tb "some searches branch" true (!searched > 0));
    Alcotest.test_case "ctrl's warm start misses its bound" `Quick
      (fun () ->
         (* So its MIP rung still branches: the bound closes nothing. *)
         let nl = (Circuits.Suite.find "ctrl").generate () in
         let bg = Compact.Preprocess.of_sbdd (Bdd.Sbdd.of_netlist nl) in
         let warm =
           Compact.Label_heuristic.solve ~alignment:true ~gamma:0.5 bg
         in
         check tb "objective above lower_bound" true
           (warm.objective > warm.lower_bound +. 1e-9);
         let r = Compact.Pipeline.synthesize nl in
         check tb "mip rung" true (r.labeling.method_name = "mip");
         check tb "branched" true (List.length r.labeling.trace > 1));
    Alcotest.test_case "request 99 is byte-identical at jobs 1 and 4"
      `Quick (fun () ->
          (* A MIP-primary serve-mix expression on which a search in
             parallel rounds settled on another optimum at jobs 4. *)
          let payload jobs =
            expr_payload ~key:"request 99"
              ~options:{ Compact.Pipeline.default_options with jobs }
              "((((~e ^ ~c) ^ (~h | d)) | ((d | ~h) & (a ^ ~b))) ^ (((c | \
               d) & (e & ~h)) & ((c | ~f) & (e | ~h))))"
          in
          check Alcotest.string "payload" (payload 1) (payload 4));
    (* Both took over 600 nodes before the odd-cycle rows and the
       objective lattice (655 and 1,289). *)
    Alcotest.test_case "request 112 and the adder close in 100 nodes" `Quick
      (fun () ->
         let request_112 =
           mip_rung_within ~nodes:100
             (Logic.Netlist.of_expr ~name:"expr"
                (e
                   "((((~h ^ g) & (~g | b)) & ((~h | h) & (~d ^ f))) ^ (((~a \
                    & e) | (h ^ a)) & ((d | a) ^ (e & c))))"))
         in
         check tb "112 optimal" true request_112.optimal;
         check ti "112 S" 57 (Compact.Types.semiperimeter request_112);
         check ti "112 D" 30 (Compact.Types.max_dimension request_112);
         let adder =
           mip_rung_within ~nodes:100 (Circuits.Arith.ripple_adder ~bits:4 ())
         in
         check tb "adder optimal" true adder.optimal;
         check ti "adder S" 51 (Compact.Types.semiperimeter adder));
    (* Its packing holds 14 cycles, which is k*: the search stops at the
       first 103-vertex cover of G□K2, found at node 4,308 (the whole
       proof takes 505,159). The cover search polls its budget every
       256 nodes. *)
    Alcotest.test_case "addcmp4's exact OCT proves 14 in 5,000 nodes" `Quick
      (fun () ->
         let g =
           graph_of_circuit (Circuits.Arith.adder_comparator ~bits:4 ())
         in
         let budget = Resilience.Budget.create ~nodes:5_000 () in
         let r = Graphs.Oct.solve ~budget g in
         check tb "optimal" true r.optimal;
         check ti "size" 14 (List.length r.transversal);
         check ti "bound" 14 r.lower_bound);
    Alcotest.test_case "a stopped exact OCT reports its packing" `Quick
      (fun () ->
         List.iter
           (fun (name, packed) ->
              let g =
                graph_of_circuit ((Circuits.Suite.find name).generate ())
              in
              check ti (name ^ " packing") packed
                (List.length (Graphs.Oct.odd_cycle_packing g));
              let budget = Resilience.Budget.create ~nodes:1 () in
              let r = Graphs.Oct.solve ~budget g in
              check tb (name ^ " stopped") false r.optimal;
              check ti (name ^ " bound") packed r.lower_bound)
           [ "int2float", 15; "c432", 58 ]);
    Alcotest.test_case "the objective lattice of gamma" `Quick (fun () ->
        List.iter
          (fun (gamma, step) ->
             let name = Printf.sprintf "gamma %g" gamma in
             check
               (Alcotest.option (Alcotest.float 1e-12))
               name step
               (Compact.Label_mip.objective_step ~gamma);
             (* Every labeling's objective lies on the lattice. *)
             Option.iter
               (fun step ->
                  for rows = 0 to 9 do
                    for cols = 0 to 9 do
                      let k =
                        Compact.Types.objective_of ~gamma ~rows ~cols /. step
                      in
                      check tb name true (abs_float (k -. Float.round k) < 1e-9)
                    done
                  done)
               step)
          [ 0.5, Some 0.5; 0., Some 1.; 1., Some 1.; 0.25, Some 0.25;
            0.3, Some 0.1; 1. /. 3., Some (1. /. 3.); 0.123456, None;
            1.5, None ]);
  ]

let metamorphic_tests =
  [
    qcheck_case "complement metamorphic: f and !f both verify" ~count:30
      expr_gen
      (fun f ->
         verify_expr f (Compact.Pipeline.synthesize_expr ~name:"f" f)
         && verify_expr (Logic.Expr.not_ f)
              (Compact.Pipeline.synthesize_expr ~name:"f"
                 (Logic.Expr.not_ f)));
    qcheck_case "COMPACT never exceeds the staircase semiperimeter"
      ~count:30 expr_gen
      (fun f ->
         let inputs = Logic.Expr.vars f in
         if inputs = [] then true
         else begin
           let nl =
             Logic.Netlist.create ~name:"m" ~inputs ~outputs:[ "f" ]
               [ Logic.Netlist.n_expr "f" f ]
           in
           let compact = Compact.Pipeline.synthesize nl in
           let stair = Baseline.Staircase.synthesize nl in
           Crossbar.Design.semiperimeter compact.design
           <= Crossbar.Design.semiperimeter stair.merged
         end);
    qcheck_case "duplicated output costs nothing extra" ~count:20 expr_gen
      (fun f ->
         (* Sharing: synthesising [f; f] equals synthesising [f] up to the
            extra output port (same nodes, same semiperimeter). *)
         let inputs = Logic.Expr.vars f in
         if inputs = [] then true
         else begin
           let one =
             Compact.Pipeline.synthesize
               (Logic.Netlist.create ~name:"m1" ~inputs ~outputs:[ "f" ]
                  [ Logic.Netlist.n_expr "f" f ])
           in
           let two =
             Compact.Pipeline.synthesize
               (Logic.Netlist.create ~name:"m2" ~inputs
                  ~outputs:[ "f"; "g" ]
                  [
                    Logic.Netlist.n_expr "f" f; Logic.Netlist.n_buf "g" "f";
                  ])
           in
           two.report.bdd_nodes = one.report.bdd_nodes
         end);
    qcheck_case "labels survive a mapping round trip" ~count:30 expr_gen
      (fun f ->
         (* The design's junction census must agree with the labeling. *)
         let bg = graph_of_expr f in
         let labeling = Compact.Label_heuristic.solve ~gamma:0.5 bg in
         let design = Compact.Mapping.run bg labeling in
         Crossbar.Design.num_on_junctions design = labeling.vh_count
         && Crossbar.Design.num_literal_junctions design
            = List.length (edge_literals bg));
  ]

(* ------------------------------------------------------------------ *)
(* Differential battery: one random function, every solver, checked
   against each other and against the reference evaluator. *)

let index_env inputs =
  let tbl = Hashtbl.create (List.length inputs) in
  List.iteri (fun i name -> Hashtbl.add tbl name i) inputs;
  fun (point : bool array) name -> point.(Hashtbl.find tbl name)

let differential_tests =
  [
    qcheck_case "every solver verifies; exact never beaten (4-6 vars)"
      ~count:20 wide_expr_gen
      (fun f ->
         let inputs = Logic.Expr.vars f in
         if inputs = [] then true
         else begin
           let env = index_env inputs in
           let reference point = [| Logic.Expr.eval (env point) f |] in
           let run solver =
             (* gamma = 1 makes the objective pure semiperimeter, so the
                exact OCT solver's optimum bounds every other method. *)
             let options =
               {
                 Compact.Pipeline.default_options with
                 solver;
                 gamma = 1.0;
                 time_limit = 10.;
               }
             in
             Compact.Pipeline.synthesize_expr ~options ~name:"d" f
           in
           let verified (r : Compact.Pipeline.result) =
             Crossbar.Verify.auto ~trials:256 r.design ~inputs ~reference
               ~outputs:[ "d_out" ]
             = Crossbar.Verify.Ok
           in
           let exact = run Compact.Pipeline.Oct_exact in
           let heuristics =
             List.map run
               [
                 Compact.Pipeline.Oct_greedy;
                 Compact.Pipeline.Mip;
                 Compact.Pipeline.Heuristic;
               ]
           in
           List.for_all verified (exact :: heuristics)
           && (* An exact optimum is a floor for every other method; only
                 claim it when the solver proved optimality in budget. *)
           ((not exact.report.optimal)
            || List.for_all
                 (fun (r : Compact.Pipeline.result) ->
                    exact.report.semiperimeter <= r.report.semiperimeter)
                 heuristics)
         end);
  ]

(* Cross-engine oracle: the expression evaluator, the BDD engine and the
   crossbar sneak-path simulator must agree on every input vector. *)

let oracle_tests =
  [
    qcheck_case "expr = BDD = crossbar on all 2^n vectors" ~count:30
      wide_expr_gen
      (fun f ->
         let inputs = Logic.Expr.vars f in
         if inputs = [] then true
         else begin
           let n = List.length inputs in
           let sbdd = Bdd.Sbdd.of_exprs ~inputs [ "root", f ] in
           let root = List.assoc "root" sbdd.Bdd.Sbdd.roots in
           let r = Compact.Pipeline.synthesize_expr ~name:"orc" f in
           let env = index_env inputs in
           let ok = ref true in
           for m = 0 to (1 lsl n) - 1 do
             let point = Array.init n (fun i -> m land (1 lsl i) <> 0) in
             let lookup = env point in
             let expr_v = Logic.Expr.eval lookup f in
             let bdd_v =
               Bdd.Manager.eval sbdd.Bdd.Sbdd.man root (fun lvl ->
                   lookup sbdd.Bdd.Sbdd.input_order.(lvl))
             in
             let xbar_v =
               List.assoc "orc_out" (Crossbar.Eval.evaluate r.design lookup)
             in
             if expr_v <> bdd_v || expr_v <> xbar_v then ok := false
           done;
           !ok
         end);
  ]

let () =
  Alcotest.run "compact"
    [
      "preprocess", preprocess_tests @ graph_oracle_tests;
      "types", types_tests;
      "labeling", label_tests;
      "constrained", constrained_tests;
      "balance", balance_tests;
      "heuristic", heuristic_tests;
      "mapping", mapping_tests;
      "design", design_oracle_tests;
      "walks", walk_oracle_tests;
      "pipeline", pipeline_tests;
      "goldens", golden_tests;
      "mip bound", mip_bound_tests;
      "metamorphic", metamorphic_tests;
      "differential", differential_tests;
      "oracle", oracle_tests;
    ]
