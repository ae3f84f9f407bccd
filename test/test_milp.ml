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
        let r = Milp.Branch_bound.solve (knapsack ()) in
        check tb "optimal" true (r.status = Milp.Branch_bound.Optimal);
        check tf "objective" 9. (Option.get r.objective);
        check tf "gap" 0. r.gap);
    Alcotest.test_case "solution is integral" `Quick (fun () ->
        let p = knapsack () in
        let r = Milp.Branch_bound.solve p in
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
        let r = Milp.Branch_bound.solve p in
        check tf "objective" 2. (Option.get r.objective));
    Alcotest.test_case "infeasible" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_binary p "x" in
        Lp.Problem.add_constraint p [ (1., x) ] Lp.Simplex.Ge 2.;
        Lp.Problem.set_objective p ~sense:`Minimize [ (1., x) ];
        let r = Milp.Branch_bound.solve p in
        check tb "infeasible" true (r.status = Milp.Branch_bound.Infeasible));
    Alcotest.test_case "general integer variable" `Quick (fun () ->
        (* max x st 2x <= 7, x integer -> 3 *)
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:10. ~integer:true p "x" in
        Lp.Problem.add_constraint p [ (2., x) ] Lp.Simplex.Le 7.;
        Lp.Problem.set_objective p ~sense:`Maximize [ (1., x) ];
        let r = Milp.Branch_bound.solve p in
        check tf "objective" 3. (Option.get r.objective));
    Alcotest.test_case "warm start prunes to the same optimum" `Quick
      (fun () ->
         let p = knapsack () in
         let point = [| 1.; 1.; 0. |] in
         let r = Milp.Branch_bound.solve ~initial:(point, 9.) p in
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
         let r = Milp.Branch_bound.solve (knapsack ()) in
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
         let r = Milp.Branch_bound.solve p in
         match brute spec, r.objective with
         | None, None -> r.status = Milp.Branch_bound.Infeasible
         | Some (expected, _), Some got -> abs_float (expected -. got) < 1e-6
         | None, Some _ | Some _, None -> false);
    qcheck_case "bound is valid" ~count:150 milp_gen (fun spec ->
        let (_, _, _, _, maximize) = spec in
        let p = build spec in
        let r = Milp.Branch_bound.solve p in
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
            Milp.Branch_bound.solve ~initial:(point, opt) ~known_bound:opt
              (build spec)
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
          let plain = Milp.Branch_bound.solve (build spec) in
          let bounded =
            Milp.Branch_bound.solve ~known_bound:weaker (build spec)
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

let () =
  Alcotest.run "milp"
    [ "branch_bound", milp_tests; "properties", milp_property_tests ]
