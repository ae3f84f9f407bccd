(* Tests for the branch & bound MIP solver. *)

let check = Alcotest.check
let tb = Alcotest.bool
let tf = Alcotest.float 1e-6

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ~name gen prop)

(* The searches of the [branch_bound] and [properties] groups expand a
   few dozen nodes at most; the allowance turns a search that never
   closes into a failure instead of a hang. *)
let allowance () = Resilience.Budget.create ~nodes:1_000 ()

let knapsack () =
  (* max 5a + 4b + 3c  st  2a + 3b + c <= 5, binaries -> a=b=1: 9 *)
  let p = Lp.Problem.create () in
  let a = Lp.Problem.add_binary p "a" in
  let b = Lp.Problem.add_binary p "b" in
  let c = Lp.Problem.add_binary p "c" in
  Lp.Problem.add_constraint p [ (2., a); (3., b); (1., c) ] Lp.Simplex.Le 5.;
  Lp.Problem.set_objective p ~sense:`Maximize [ (5., a); (4., b); (3., c) ];
  p

let milp_tests =
  [
    Alcotest.test_case "knapsack optimum" `Quick (fun () ->
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) (knapsack ()) in
        check tb "optimal" true (r.status = Milp.Branch_bound.Optimal);
        check tf "objective" 9. (Option.get r.objective);
        check tf "gap" 0. r.gap);
    Alcotest.test_case "solution is integral" `Quick (fun () ->
        let p = knapsack () in
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
        let sol = Option.get r.solution in
        List.iter
          (fun (v : Lp.Problem.var) ->
             let x = sol.((v :> int)) in
             check tb "integral" true (abs_float (x -. Float.round x) < 1e-6))
          (Lp.Problem.integer_vars p));
    Alcotest.test_case "minimisation with integers" `Quick (fun () ->
        (* min x + y st x + y >= 1.5, binaries -> 2. *)
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_binary p "x" in
        let y = Lp.Problem.add_binary p "y" in
        Lp.Problem.add_constraint p [ (1., x); (1., y) ] Lp.Simplex.Ge 1.5;
        Lp.Problem.set_objective p ~sense:`Minimize [ (1., x); (1., y) ];
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
        check tf "objective" 2. (Option.get r.objective));
    Alcotest.test_case "infeasible" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_binary p "x" in
        Lp.Problem.add_constraint p [ (1., x) ] Lp.Simplex.Ge 2.;
        Lp.Problem.set_objective p ~sense:`Minimize [ (1., x) ];
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
        check tb "infeasible" true (r.status = Milp.Branch_bound.Infeasible));
    Alcotest.test_case "general integer variable" `Quick (fun () ->
        (* max x st 2x <= 7, x integer -> 3 *)
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:10. ~integer:true p "x" in
        Lp.Problem.add_constraint p [ (2., x) ] Lp.Simplex.Le 7.;
        Lp.Problem.set_objective p ~sense:`Maximize [ (1., x) ];
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
        check tf "objective" 3. (Option.get r.objective));
    Alcotest.test_case "warm start prunes to the same optimum" `Quick
      (fun () ->
         let p = knapsack () in
         let point = [| 1.; 1.; 0. |] in
         let r =
           Milp.Branch_bound.solve ~budget:(allowance ()) ~initial:(point, 9.) p
         in
         check tf "objective" 9. (Option.get r.objective);
         check tb "optimal" true (r.status = Milp.Branch_bound.Optimal));
    Alcotest.test_case "node limit yields a bound and gap" `Quick (fun () ->
        let p = knapsack () in
        let budget = Resilience.Budget.create ~nodes:1 () in
        let r =
          Milp.Branch_bound.solve ~budget ~initial:([| 0.; 0.; 0. |], 0.) p
        in
        check tb "not closed" true (r.status <> Milp.Branch_bound.Infeasible);
        check tb "gap in [0,1]" true (r.gap >= 0. && r.gap <= 1.));
    Alcotest.test_case "a relaxation the budget stops stays open" `Quick
      (fun () ->
         (* A node allowance of 0 lets the root in (the round head sees
            0 used); charging it trips the budget, and the relaxation
            stops at its first pivot. *)
         let budget = Resilience.Budget.create ~nodes:0 () in
         let point = [| 1.; 0.; 1. |] in
         let r =
           Milp.Branch_bound.solve ~budget ~initial:(point, 8.) (knapsack ())
         in
         check tb "feasible" true (r.status = Milp.Branch_bound.Feasible);
         check tf "warm objective" 8. (Option.get r.objective);
         check tb "no bound from an unsolved root" true (r.bound = infinity));
    Alcotest.test_case "trace is chronological with shrinking gap" `Quick
      (fun () ->
         let r = Milp.Branch_bound.solve ~budget:(allowance ()) (knapsack ()) in
         let times = List.map (fun t -> t.Milp.Branch_bound.t_elapsed) r.trace in
         check tb "sorted" true (List.sort compare times = times);
         match List.rev r.trace with
         | last :: _ -> check tf "final gap" 0. last.t_gap
         | [] -> Alcotest.fail "empty trace");
    Alcotest.test_case "relative gap definition" `Quick (fun () ->
        check tf "no incumbent" 1.
          (Milp.Branch_bound.relative_gap ~incumbent:None ~bound:5.);
        check tf "closed" 0.
          (Milp.Branch_bound.relative_gap ~incumbent:(Some 10.) ~bound:10.);
        check tf "half" 0.5
          (Milp.Branch_bound.relative_gap ~incumbent:(Some 10.) ~bound:5.));
  ]

(* Random 0-1 MIPs compared against brute force. *)
let milp_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* m = int_range 1 3 in
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let* rows = list_repeat m (list_repeat n coeff) in
    let* rhs = list_repeat m (map (fun k -> float_of_int k -. 1.) (int_bound 5)) in
    let* c = list_repeat n coeff in
    let* maximize = bool in
    return (n, rows, rhs, c, maximize))

let build (n, rows, rhs, c, maximize) =
  let p = Lp.Problem.create () in
  let vars =
    Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "b%d" i))
  in
  List.iteri
    (fun i row ->
       let terms = List.mapi (fun j v -> v, vars.(j)) row in
       Lp.Problem.add_constraint p terms Lp.Simplex.Le (List.nth rhs i))
    rows;
  Lp.Problem.set_objective p
    ~sense:(if maximize then `Maximize else `Minimize)
    (List.mapi (fun j v -> v, vars.(j)) c);
  p

(* The optimum and one optimal point, or [None] when infeasible. *)
let brute (n, rows, rhs, c, maximize) =
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1. else 0.) in
    let feasible =
      List.for_all2
        (fun row bound ->
           let lhs = List.fold_left ( +. ) 0. (List.mapi (fun j v -> v *. x.(j)) row) in
           lhs <= bound +. 1e-9)
        rows rhs
    in
    if feasible then begin
      let obj = List.fold_left ( +. ) 0. (List.mapi (fun j v -> v *. x.(j)) c) in
      match !best with
      | None -> best := Some (obj, x)
      | Some (b, _) ->
        if (maximize && obj > b) || ((not maximize) && obj < b) then
          best := Some (obj, x)
    end
  done;
  !best

let milp_property_tests =
  [
    qcheck_case "matches brute force on random 0-1 programs" ~count:150
      milp_gen
      (fun spec ->
         let p = build spec in
         let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
         match brute spec, r.objective with
         | None, None -> r.status = Milp.Branch_bound.Infeasible
         | Some (expected, _), Some got -> abs_float (expected -. got) < 1e-6
         | None, Some _ | Some _, None -> false);
    qcheck_case "bound is valid" ~count:150 milp_gen (fun spec ->
        let (_, _, _, _, maximize) = spec in
        let p = build spec in
        let r = Milp.Branch_bound.solve ~budget:(allowance ()) p in
        match r.objective with
        | None -> true
        | Some obj ->
          if maximize then r.bound >= obj -. 1e-6 else r.bound <= obj +. 1e-6);
    qcheck_case "an optimal warm start at the known bound expands no node"
      ~count:150 milp_gen (fun spec ->
        match brute spec with
        | None -> true
        | Some (opt, point) ->
          let r =
            Milp.Branch_bound.solve ~budget:(allowance ()) ~initial:(point, opt)
              ~known_bound:opt (build spec)
          in
          r.status = Milp.Branch_bound.Optimal
          && r.nodes = 0
          && r.objective = Some opt
          && r.gap = 0.);
    qcheck_case "a bound 1 weaker than the optimum changes nothing"
      ~count:150 milp_gen (fun spec ->
        let (_, _, _, _, maximize) = spec in
        match brute spec with
        | None -> true
        | Some (opt, _) ->
          let weaker = if maximize then opt +. 1. else opt -. 1. in
          let plain =
            Milp.Branch_bound.solve ~budget:(allowance ()) (build spec)
          in
          let bounded =
            Milp.Branch_bound.solve ~budget:(allowance ()) ~known_bound:weaker
              (build spec)
          in
          plain.status = bounded.status && plain.objective = bounded.objective);
    (* A node allowance of [k] expands up to [k + 1] nodes: the charge
       that trips it stops the last relaxation in flight. *)
    qcheck_case "a search the node limit stops keeps the known bound"
      ~count:150
      QCheck2.Gen.(pair milp_gen (int_range 1 2))
      (fun (spec, node_limit) ->
         let (_, _, _, _, maximize) = spec in
         match brute spec with
         | None -> true
         | Some (opt, _) ->
           (* The optimum itself and a weaker bound: both valid. *)
           List.for_all
             (fun slack ->
                let known = if maximize then opt +. slack else opt -. slack in
                let budget = Resilience.Budget.create ~nodes:node_limit () in
                let r =
                  Milp.Branch_bound.solve ~budget ~known_bound:known
                    (build spec)
                in
                let at_least_known =
                  if maximize then r.bound <= known +. 1e-9
                  else r.bound >= known -. 1e-9
                in
                let still_valid =
                  if maximize then r.bound >= opt -. 1e-6
                  else r.bound <= opt +. 1e-6
                in
                r.nodes <= node_limit + 1 && at_least_known && still_valid)
             [ 0.; 1.5 ]);
  ]

(* VH-labeling models as Label_mip builds them (a label per node, both
   label kinds covering every edge, D above the row and column counts,
   the cut rows S >= n + k and D >= ceil((n + k)/2), an optional
   wordline capacity, alignment forcing some nodes onto wordlines,
   objective gamma*S + (1-gamma)*D), against every labeling. Their
   searches branch several levels deep, so children re-optimise their
   parents' tableaux. *)
type vh = {
  nodes : int;
  edges : (int * int) list;
  cut : int;
  cap : int option;
  aligned : int list;
  gamma : float;
}

let vh_gen =
  QCheck2.Gen.(
    let* nodes = int_range 2 6 in
    let pairs =
      List.concat (List.init nodes (fun i -> List.init i (fun j -> j, i)))
    in
    let* keep = list_repeat (List.length pairs) bool in
    let edges = List.filteri (fun k _ -> List.nth keep k) pairs in
    let* cut = int_bound 2 in
    let* cap = opt (int_range 1 nodes) in
    let* alignment = bool in
    let* aligned =
      if alignment then list_size (int_range 1 2) (int_bound (nodes - 1))
      else return []
    in
    let* gamma = oneofl [ 0.; 0.5; 1. ] in
    return { nodes; edges; cut; cap; aligned; gamma })

let vh_problem m =
  let p = Lp.Problem.create () in
  let n = m.nodes in
  let xv = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "v%d" i)) in
  let xh = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "h%d" i)) in
  let d = Lp.Problem.add_var p "D" in
  let all x = Array.to_list (Array.map (fun v -> 1., v) x) in
  let minus = List.map (fun (k, v) -> -.k, v) in
  Array.iteri
    (fun i v -> Lp.Problem.add_constraint p [ (1., v); (1., xh.(i)) ] Ge 1.)
    xv;
  List.iter
    (fun (i, j) ->
       Lp.Problem.add_constraint p [ (1., xh.(i)); (1., xh.(j)) ] Ge 1.;
       Lp.Problem.add_constraint p [ (1., xv.(i)); (1., xv.(j)) ] Ge 1.)
    m.edges;
  Lp.Problem.add_constraint p ((1., d) :: minus (all xh)) Ge 0.;
  Lp.Problem.add_constraint p ((1., d) :: minus (all xv)) Ge 0.;
  let s_lb = float_of_int (n + m.cut) in
  Lp.Problem.add_constraint p (all xv @ all xh) Ge s_lb;
  Lp.Problem.add_constraint p [ (1., d) ] Ge (ceil (s_lb /. 2.));
  Option.iter
    (fun k -> Lp.Problem.add_constraint p (all xh) Le (float_of_int k))
    m.cap;
  List.iter (fun i -> Lp.Problem.add_constraint p [ (1., xh.(i)) ] Ge 1.) m.aligned;
  Lp.Problem.set_objective p ~sense:`Minimize
    ((1. -. m.gamma, d)
     :: List.map (fun (_, v) -> m.gamma, v) (all xv @ all xh));
  p

(* The least objective over every labeling (V, H or VH per node), with
   D at its least value max(R, C, ceil((n + k)/2)); [None] when no
   labeling satisfies the rows. *)
let vh_brute m =
  let n = m.nodes in
  let best = ref None in
  let rec go i v h =
    if i = n then begin
      let covered =
        List.for_all (fun (a, b) -> (h.(a) || h.(b)) && (v.(a) || v.(b))) m.edges
      in
      let count x = Array.fold_left (fun k b -> if b then k + 1 else k) 0 x in
      let r = count h and c = count v in
      let s = r + c in
      if
        covered
        && List.for_all (fun i -> h.(i)) m.aligned
        && (match m.cap with Some k -> r <= k | None -> true)
        && s >= n + m.cut
      then begin
        let d = max (max r c) ((n + m.cut + 1) / 2) in
        let obj =
          (m.gamma *. float_of_int s) +. ((1. -. m.gamma) *. float_of_int d)
        in
        match !best with
        | Some b when b <= obj -> ()
        | _ -> best := Some obj
      end
    end
    else
      List.iter
        (fun (vi, hi) ->
           v.(i) <- vi;
           h.(i) <- hi;
           go (i + 1) v h)
        [ (true, false); (false, true); (true, true) ]
  in
  go 0 (Array.make n false) (Array.make n false);
  !best

let vh_property_tests =
  [
    qcheck_case "VH-labeling models match brute force" ~count:150 vh_gen
      (fun m ->
         (* A search here expands at most a few hundred nodes; the
            allowance turns a search that never closes into a failure. *)
         let budget = Resilience.Budget.create ~nodes:20_000 () in
         let r = Milp.Branch_bound.solve ~budget (vh_problem m) in
         match vh_brute m, r.objective with
         | None, None -> r.status = Milp.Branch_bound.Infeasible
         | Some expected, Some got ->
           r.status = Milp.Branch_bound.Optimal
           && abs_float (expected -. got) < 1e-6
         | None, Some _ | Some _, None -> false);
    (* γ·S + (1 − γ)·D lies on 0.5·ℤ at γ = 0.5 and on ℤ at γ = 0 or 1
       (Label_mip.objective_step). *)
    qcheck_case "the objective lattice keeps the status and objective"
      ~count:150 vh_gen (fun m ->
        let solve objective_step =
          Milp.Branch_bound.solve
            ~budget:(Resilience.Budget.create ~nodes:20_000 ())
            ?objective_step (vh_problem m)
        in
        let plain = solve None in
        let lattice = solve (Some (if m.gamma = 0.5 then 0.5 else 1.)) in
        plain.status = lattice.status
        &&
        match plain.objective, lattice.objective with
        | Some a, Some b -> abs_float (a -. b) < 1e-9
        | None, None -> true
        | Some _, None | None, Some _ -> false);
  ]

let () =
  Alcotest.run "milp"
    [
      "branch_bound", milp_tests;
      "properties", milp_property_tests;
      "vh-labeling", vh_property_tests;
    ]
