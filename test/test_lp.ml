(* Tests for the bounded dual simplex and the LP model builder, with a
   differential battery against the dense primal reference in
   Dense_simplex and a check of warm-started re-optimisation. *)

let check = Alcotest.check
let tb = Alcotest.bool
let tf = Alcotest.float 1e-6

(* The @proptest alias re-runs the property tests with QCHECK_MULT-times
   the default case count (see test/dune). *)
let qcheck_mult =
  match Option.bind (Sys.getenv_opt "QCHECK_MULT") int_of_string_opt with
  | Some n when n > 0 -> n
  | Some _ | None -> 1

let qcheck_case ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:(count * qcheck_mult) ?print ~name gen prop)

let solve_min ~a ~rel ~b ~c = Lp.Simplex.minimize ~a ~rel ~b ~c
let solve_max ~a ~rel ~b ~c = Lp.Simplex.maximize ~a ~rel ~b ~c

let expect_optimal = function
  | Lp.Simplex.Optimal { objective; solution } -> objective, solution
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"

let simplex_tests =
  [
    Alcotest.test_case "textbook maximum" `Quick (fun () ->
        (* max 3x + 2y st x+y<=4, x+3y<=6 -> (4, 0), 12 *)
        let obj, sol =
          expect_optimal
            (solve_max
               ~a:[| [| 1.; 1. |]; [| 1.; 3. |] |]
               ~rel:[| Lp.Simplex.Le; Lp.Simplex.Le |]
               ~b:[| 4.; 6. |] ~c:[| 3.; 2. |])
        in
        check tf "obj" 12. obj;
        check tf "x" 4. sol.(0);
        check tf "y" 0. sol.(1));
    Alcotest.test_case "equality and >= constraints" `Quick (fun () ->
        (* min x+y st x+y>=2, x-y=1 -> (1.5, 0.5) *)
        let obj, sol =
          expect_optimal
            (solve_min
               ~a:[| [| 1.; 1. |]; [| 1.; -1. |] |]
               ~rel:[| Lp.Simplex.Ge; Lp.Simplex.Eq |]
               ~b:[| 2.; 1. |] ~c:[| 1.; 1. |])
        in
        check tf "obj" 2. obj;
        check tf "x" 1.5 sol.(0);
        check tf "y" 0.5 sol.(1));
    Alcotest.test_case "negative rhs normalisation" `Quick (fun () ->
        (* min x st -x <= -3  (i.e. x >= 3) *)
        let obj, _ =
          expect_optimal
            (solve_min ~a:[| [| -1. |] |] ~rel:[| Lp.Simplex.Le |]
               ~b:[| -3. |] ~c:[| 1. |])
        in
        check tf "obj" 3. obj);
    Alcotest.test_case "infeasible detected" `Quick (fun () ->
        check tb "infeasible" true
          (solve_min
             ~a:[| [| 1. |]; [| 1. |] |]
             ~rel:[| Lp.Simplex.Le; Lp.Simplex.Ge |]
             ~b:[| 1.; 2. |] ~c:[| 1. |]
           = Lp.Simplex.Infeasible));
    Alcotest.test_case "unbounded detected" `Quick (fun () ->
        check tb "unbounded" true
          (solve_max ~a:[||] ~rel:[||] ~b:[||] ~c:[| 1. |]
           = Lp.Simplex.Unbounded));
    Alcotest.test_case "degenerate LP terminates (Bland)" `Quick (fun () ->
        (* Classic Beale cycling example; Bland's rule must terminate. *)
        let a =
          [|
            [| 0.25; -8.; -1.; 9. |];
            [| 0.5; -12.; -0.5; 3. |];
            [| 0.; 0.; 1.; 0. |];
          |]
        in
        let obj, _ =
          expect_optimal
            (solve_min ~a
               ~rel:[| Lp.Simplex.Le; Lp.Simplex.Le; Lp.Simplex.Le |]
               ~b:[| 0.; 0.; 1. |]
               ~c:[| -0.75; 150.; -0.02; 6. |])
        in
        check tf "obj" (-0.77) obj);
    Alcotest.test_case "redundant equality rows" `Quick (fun () ->
        (* x = 1 stated twice. *)
        let obj, _ =
          expect_optimal
            (solve_min
               ~a:[| [| 1. |]; [| 1. |] |]
               ~rel:[| Lp.Simplex.Eq; Lp.Simplex.Eq |]
               ~b:[| 1.; 1. |] ~c:[| 1. |])
        in
        check tf "obj" 1. obj);
    Alcotest.test_case "dimension mismatch rejected" `Quick (fun () ->
        check tb "raises" true
          (match
             solve_min ~a:[| [| 1. |] |] ~rel:[||] ~b:[| 1. |] ~c:[| 1. |]
           with
           | exception Invalid_argument _ -> true
           | _ -> false));
  ]

(* Random LPs: minimise a random cost over { x in [0,1]^n : random ≤ cuts }.
   The box keeps everything bounded; feasibility of x = 0 is ensured by
   using non-negative rhs. *)
let lp_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* m = int_range 1 4 in
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let* rows = list_repeat m (list_repeat n coeff) in
    let* rhs = list_repeat m (map float_of_int (int_bound 5)) in
    let* c = list_repeat n coeff in
    return (n, rows, rhs, c))

let build_lp (n, rows, rhs, c) =
  let m = List.length rows in
  let a = Array.make_matrix (m + 2 * n) n 0. in
  let rel = Array.make (m + 2 * n) Lp.Simplex.Le in
  let b = Array.make (m + 2 * n) 0. in
  List.iteri
    (fun i row ->
       List.iteri (fun j v -> a.(i).(j) <- v) row;
       b.(i) <- List.nth rhs i)
    rows;
  (* box: x_j <= 1 (lower bound 0 is implicit) *)
  for j = 0 to n - 1 do
    a.(m + j).(j) <- 1.;
    b.(m + j) <- 1.
  done;
  (* filler rows x_j <= 1 again to keep shape simple *)
  for j = 0 to n - 1 do
    a.(m + n + j).(j) <- 1.;
    b.(m + n + j) <- 1.
  done;
  a, rel, b, Array.of_list c

let feasible (a, rel, b) x =
  let m = Array.length b in
  let ok = ref true in
  for i = 0 to m - 1 do
    let lhs = ref 0. in
    Array.iteri (fun j v -> lhs := !lhs +. (v *. x.(j))) a.(i);
    (match rel.(i) with
     | Lp.Simplex.Le -> if !lhs > b.(i) +. 1e-6 then ok := false
     | Lp.Simplex.Ge -> if !lhs < b.(i) -. 1e-6 then ok := false
     | Lp.Simplex.Eq -> if abs_float (!lhs -. b.(i)) > 1e-6 then ok := false)
  done;
  Array.iter (fun v -> if v < -1e-9 then ok := false) x;
  !ok

let simplex_property_tests =
  [
    qcheck_case "solution is feasible and objective consistent" ~count:200
      lp_gen
      (fun spec ->
         let a, rel, b, c = build_lp spec in
         match Lp.Simplex.minimize ~a ~rel ~b ~c with
         | Lp.Simplex.Unbounded -> false (* box-bounded: impossible *)
         | Lp.Simplex.Infeasible ->
           (* x = 0 is feasible whenever all rhs are >= 0, which holds by
              construction. *)
           not (feasible (a, rel, b) (Array.make (Array.length c) 0.))
         | Lp.Simplex.Optimal { objective; solution } ->
           feasible (a, rel, b) solution
           &&
           let recomputed = ref 0. in
           Array.iteri
             (fun j v -> recomputed := !recomputed +. (v *. solution.(j)))
             c;
           abs_float (!recomputed -. objective) < 1e-6);
    qcheck_case "no sampled corner beats the optimum" ~count:200 lp_gen
      (fun spec ->
         let a, rel, b, c = build_lp spec in
         match Lp.Simplex.minimize ~a ~rel ~b ~c with
         | Lp.Simplex.Unbounded | Lp.Simplex.Infeasible -> true
         | Lp.Simplex.Optimal { objective; _ } ->
           (* Enumerate the 0/1 corners of the box that are feasible; none
              may have a smaller objective. *)
           let n = Array.length c in
           let ok = ref true in
           for mask = 0 to (1 lsl n) - 1 do
             let x =
               Array.init n (fun j ->
                   if mask land (1 lsl j) <> 0 then 1. else 0.)
             in
             if feasible (a, rel, b) x then begin
               let v = ref 0. in
               Array.iteri (fun j cj -> v := !v +. (cj *. x.(j))) c;
               if !v < objective -. 1e-6 then ok := false
             end
           done;
           !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Differential battery: Lp.Simplex against the dense two-phase primal
   kept in Dense_simplex. The two take different pivots and can stop at
   different optimal vertices, so they must agree on the outcome class
   and, when optimal, on the objective within 1e-7 (relative); the
   point Lp.Simplex returns must satisfy every row and bound within 1e-7
   and reproduce its objective. *)

let tol = 1e-7
let close x y = abs_float (x -. y) <= tol *. Float.max 1. (abs_float y)

let dot c x =
  let s = ref 0. in
  Array.iteri (fun j k -> s := !s +. (k *. x.(j))) c;
  !s

(* [x] satisfies rows [a x rel b] and [x >= 0] within [tol]. *)
let satisfies (a, rel, b) x =
  Array.for_all (fun v -> v >= -.tol) x
  && Array.for_all2
       (fun (row, r) bi ->
          let lhs = dot row x in
          match r with
          | Lp.Simplex.Le -> lhs <= bi +. tol
          | Lp.Simplex.Ge -> lhs >= bi -. tol
          | Lp.Simplex.Eq -> abs_float (lhs -. bi) <= tol)
       (Array.map2 (fun row r -> row, r) a rel)
       b

let same_outcome ~lp:(_, a, rel, b, c) (got : Lp.Simplex.outcome)
    (want : Lp.Simplex.outcome) =
  match got, want with
  | Optimal g, Optimal w ->
    close g.objective w.objective
    && Array.length g.solution = Array.length c
    && satisfies (a, rel, b) g.solution
    && close (dot c g.solution) g.objective
  | Infeasible, Infeasible | Unbounded, Unbounded -> true
  | _ -> false

let unlimited = Resilience.Budget.unlimited

let print_lp (sense, a, rel, b, c) =
  let row r = String.concat " " (Array.to_list (Array.map string_of_float r)) in
  let rel_s = function Lp.Simplex.Le -> "<=" | Ge -> ">=" | Eq -> "=" in
  Printf.sprintf "%s [%s]\n%s"
    (match sense with `Minimize -> "min" | `Maximize -> "max")
    (row c)
    (String.concat "\n"
       (Array.to_list
          (Array.mapi
             (fun i r -> Printf.sprintf "  [%s] %s %g" (row r) (rel_s rel.(i)) b.(i))
             a)))

let agrees ~workspace ((sense, a, rel, b, c) as lp) =
  same_outcome ~lp
    (Lp.Simplex.solve ~workspace ~budget:unlimited ~sense ~a ~rel ~b ~c)
    (Dense_simplex.solve ~budget:unlimited ~sense ~a ~rel ~b ~c)

(* Random LPs with every relation and right-hand sides of either sign;
   without the box they can be infeasible or unbounded too. *)
let general_lp_gen =
  QCheck2.Gen.(
    let* n = int_range 1 5 in
    let* m = int_range 0 6 in
    let coeff = map (fun k -> float_of_int (k - 3)) (int_bound 6) in
    let* rows = list_repeat m (list_repeat n coeff) in
    let* rels = list_repeat m (oneofl Lp.Simplex.[ Le; Ge; Eq ]) in
    let* rhs =
      list_repeat m (map (fun k -> float_of_int (k - 5)) (int_bound 10))
    in
    let* box = bool in
    let* c = list_repeat n coeff in
    let* sense = oneofl [ `Minimize; `Maximize ] in
    let unit j = List.init n (fun k -> if k = j then 1. else 0.) in
    let rows, rels, rhs =
      if box then
        ( rows @ List.init n unit,
          rels @ List.init n (fun _ -> Lp.Simplex.Le),
          rhs @ List.init n (fun _ -> 1.) )
      else rows, rels, rhs
    in
    let arr = Array.of_list in
    return (sense, arr (List.map arr rows), arr rels, arr rhs, arr c))

(* A VH-labeling model as Label_mip builds it, over variables
   xv_i = i, xh_i = n + i and D = 2n: a label per node, both label kinds
   covering every edge, D above the row and column counts, the cut rows
   S >= n + k and D >= ceil((n + k)/2), an optional wordline capacity,
   and objective gamma*S + (1-gamma)*D. *)
type vh_model = {
  nvars : int;
  rows : ((float * int) list * Lp.Simplex.relation * float) list;
  objective : (float * int) list;
}

let vh_model ~nodes ~edges ~cut ~cap ~gamma =
  let xv i = i and xh i = nodes + i and d = 2 * nodes in
  let all f = List.init nodes (fun i -> 1., f i) in
  let minus = List.map (fun (k, v) -> -.k, v) in
  let rows =
    List.init nodes (fun i -> [ (1., xv i); (1., xh i) ], Lp.Simplex.Ge, 1.)
    @ List.concat_map
        (fun (i, j) ->
           [ ([ (1., xh i); (1., xh j) ], Lp.Simplex.Ge, 1.);
             ([ (1., xv i); (1., xv j) ], Lp.Simplex.Ge, 1.) ])
        edges
    @ [ ((1., d) :: minus (all xh), Lp.Simplex.Ge, 0.);
        ((1., d) :: minus (all xv), Lp.Simplex.Ge, 0.);
        (all xv @ all xh, Lp.Simplex.Ge, float_of_int (nodes + cut));
        ([ (1., d) ], Lp.Simplex.Ge, ceil (float_of_int (nodes + cut) /. 2.)) ]
    @
    match cap with
    | Some k -> [ (all xh, Lp.Simplex.Le, float_of_int k) ]
    | None -> []
  in
  let objective =
    ((1. -. gamma), d) :: List.map (fun (_, v) -> gamma, v) (all xv @ all xh)
  in
  { nvars = d + 1; rows; objective }

let vh_problem model =
  let p = Lp.Problem.create () in
  let vars =
    Array.init model.nvars (fun v ->
        if v < model.nvars - 1 then Lp.Problem.add_binary p (string_of_int v)
        else Lp.Problem.add_var p "D")
  in
  let terms = List.map (fun (k, v) -> k, vars.(v)) in
  List.iter
    (fun (coeffs, r, rhs) -> Lp.Problem.add_constraint p (terms coeffs) r rhs)
    model.rows;
  Lp.Problem.set_objective p ~sense:`Minimize (terms model.objective);
  p, vars

(* The dense LP that Problem.solve_relaxation hands the simplex, in its
   row order: the model rows as added, an x <= 1 row per binary from the
   last to the first, then each fixing's rows, x <= ub before x >= lb. *)
let vh_dense model fixings =
  let ub_rows =
    List.rev
      (List.init (model.nvars - 1) (fun v -> [ (1., v) ], Lp.Simplex.Le, 1.))
  in
  let fixing_rows =
    List.concat_map
      (fun (v, lb, ub) ->
         (if ub < infinity then [ ([ (1., v) ], Lp.Simplex.Le, ub) ] else [])
         @ if lb > 0. then [ ([ (1., v) ], Lp.Simplex.Ge, lb) ] else [])
      fixings
  in
  let rows = Array.of_list (model.rows @ ub_rows @ fixing_rows) in
  let a =
    Array.map
      (fun (coeffs, _, _) ->
         let r = Array.make model.nvars 0. in
         List.iter (fun (k, v) -> r.(v) <- r.(v) +. k) coeffs;
         r)
      rows
  in
  let c = Array.make model.nvars 0. in
  List.iter (fun (k, v) -> c.(v) <- c.(v) +. k) model.objective;
  ( `Minimize,
    a,
    Array.map (fun (_, r, _) -> r) rows,
    Array.map (fun (_, _, b) -> b) rows,
    c )

(* A random graph of 2-6 nodes and a sequence of branch-and-bound style
   fixings (x = 0 as x <= 0, x = 1 as x >= 1), conflicting ones too. *)
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
    let* gamma = oneofl [ 0.; 0.5; 1. ] in
    let fixing =
      map2
        (fun v one -> if one then v, 1., infinity else v, 0., 0.)
        (int_bound ((2 * nodes) - 1))
        bool
    in
    let* fixings =
      list_size (int_range 1 6) (list_size (int_bound 5) fixing)
    in
    return (vh_model ~nodes ~edges ~cut ~cap ~gamma, fixings))

let differential_tests =
  [
    qcheck_case "random LPs: same outcome as the dense reference" ~count:500
      ~print:print_lp general_lp_gen
      (fun lp -> agrees ~workspace:(Lp.Simplex.workspace ()) lp);
    qcheck_case "one workspace through LPs that grow and shrink" ~count:200
      QCheck2.Gen.(list_size (int_range 2 8) general_lp_gen)
      (fun lps ->
         let workspace = Lp.Simplex.workspace () in
         List.for_all (agrees ~workspace) lps);
    qcheck_case "VH-labeling relaxations under fixings, one workspace"
      ~count:200 vh_gen
      (fun (model, fixing_sets) ->
         let p, vars = vh_problem model in
         let workspace = Lp.Simplex.workspace () in
         List.for_all
           (fun fixings ->
              let bounds =
                List.map (fun (v, lb, ub) -> vars.(v), lb, ub) fixings
              in
              let (_, a, rel, b, c) as lp = vh_dense model fixings in
              same_outcome ~lp
                (Lp.Problem.solve_relaxation ~bounds ~workspace p)
                (Dense_simplex.solve ~budget:unlimited ~sense:`Minimize ~a
                   ~rel ~b ~c))
           fixing_sets);
  ]

(* Warm starts: a solved tableau re-optimised after one more bound
   against a solve from the slack basis under all the bounds. Each step
   branches as the search does: one child re-optimises a copy of the
   parent's tableau, and its sibling, under the opposite bound, takes
   the parent's own, so a copy that shared storage would show. *)

let with_bound_rows (sense, a, rel, b, c) bounds =
  let n = Array.length c in
  let unit v = Array.init n (fun j -> if j = v then 1. else 0.) in
  let rows =
    List.concat_map
      (fun (v, lo, hi) ->
         (if hi < infinity then [ (unit v, Lp.Simplex.Le, hi) ] else [])
         @ if lo > 0. then [ (unit v, Lp.Simplex.Ge, lo) ] else [])
      bounds
  in
  let extra f = Array.of_list (List.map f rows) in
  ( sense,
    Array.append a (extra (fun (r, _, _) -> r)),
    Array.append rel (extra (fun (_, r, _) -> r)),
    Array.append b (extra (fun (_, _, k) -> k)),
    c )

(* Branch along [path] from an optimal [root] of [lp_of []], checking
   both children of every step against [fresh bounds]. *)
let warm_walk ~ws ~lp_of ~fresh ~to_sense root path =
  let optimise t = to_sense (Lp.Simplex.optimise ~budget:unlimited ws t) in
  let rec walk parent bounds = function
    | [] -> true
    | (((v, lo, hi) as bound), ((sv, slo, shi) as sibling)) :: rest ->
      let child = Lp.Simplex.copy ws parent in
      Lp.Simplex.tighten child v ~lo ~hi;
      let here = bound :: bounds and there = sibling :: bounds in
      let got = optimise child in
      Lp.Simplex.tighten parent sv ~lo:slo ~hi:shi;
      same_outcome ~lp:(lp_of here) got (fresh here)
      && same_outcome ~lp:(lp_of there) (optimise parent) (fresh there)
      &&
      match got with
      | Lp.Simplex.Optimal _ -> walk child here rest
      | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> true
  in
  match optimise root with
  | Lp.Simplex.Optimal _ -> walk root [] path
  | Lp.Simplex.Infeasible | Lp.Simplex.Unbounded -> true

(* A general LP with random column bounds to tighten, each paired with a
   sibling bound on the other side of a split point. *)
let bounded_lp_gen =
  QCheck2.Gen.(
    let* lp = general_lp_gen in
    let _, _, _, _, c = lp in
    let n = Array.length c in
    let* path =
      list_size (int_range 1 6)
        (let* v = int_bound (n - 1) in
         let* k = int_bound 3 in
         return ((v, 0., float_of_int k), (v, float_of_int (k + 1), infinity)))
    in
    return (lp, path))

let warm_tests =
  [
    qcheck_case "VH relaxations: a saved tableau plus one bound = fresh solve"
      ~count:200 vh_gen
      (fun (model, fixing_sets) ->
         let p, vars = vh_problem model in
         let ws = Lp.Simplex.workspace () in
         (* Problem numbers the variables in order: vars.(v) is v. *)
         let path =
           List.map
             (fun ((v, lo, _) as bound) ->
                bound, if lo > 0. then v, 0., 0. else v, 1., infinity)
             (List.concat fixing_sets)
         in
         let fresh bounds =
           Lp.Problem.solve_relaxation
             ~bounds:(List.map (fun (v, lo, hi) -> vars.(v), lo, hi) bounds)
             p
         in
         warm_walk ~ws ~lp_of:(vh_dense model) ~fresh ~to_sense:Fun.id
           (Lp.Simplex.start ws (Lp.Problem.lp p))
           path);
    qcheck_case "general LPs: a saved tableau plus one bound = fresh solve"
      ~count:300 bounded_lp_gen
      (fun (((sense, a, rel, b, c) as lp), path) ->
         let ws = Lp.Simplex.workspace () in
         let min_c =
           match sense with
           | `Minimize -> c
           | `Maximize -> Array.map ( ~-. ) c
         in
         let simplex_lp =
           Lp.Simplex.lp ~a ~rel ~b ~c:min_c
             ~ub:(Array.make (Array.length c) infinity)
         in
         let to_sense (o : Lp.Simplex.outcome) =
           match sense, o with
           | `Maximize, Optimal { objective; solution } ->
             Lp.Simplex.Optimal { objective = -.objective; solution }
           | _ -> o
         in
         let fresh bounds =
           let t = Lp.Simplex.start ws simplex_lp in
           List.iter (fun (v, lo, hi) -> Lp.Simplex.tighten t v ~lo ~hi) bounds;
           to_sense (Lp.Simplex.optimise ~budget:unlimited ws t)
         in
         warm_walk ~ws ~lp_of:(with_bound_rows lp) ~fresh ~to_sense
           (Lp.Simplex.start ws simplex_lp)
           path);
  ]

let problem_tests =
  [
    Alcotest.test_case "builder with upper bounds" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:2. p "x" in
        let y = Lp.Problem.add_var p "y" in
        Lp.Problem.add_constraint p [ (1., x); (1., y) ] Lp.Simplex.Le 10.;
        Lp.Problem.set_objective p ~sense:`Maximize [ (3., x); (1., y) ];
        (match Lp.Problem.solve_relaxation p with
         | Lp.Simplex.Optimal { objective; solution } ->
           (* x capped at 2, y fills the rest: 3*2 + 8 = 14. *)
           check tf "obj" 14. objective;
           check tf "x" 2. solution.((x :> int))
         | _ -> Alcotest.fail "expected optimal"));
    Alcotest.test_case "bound overrides" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:5. p "x" in
        Lp.Problem.set_objective p ~sense:`Maximize [ (1., x) ];
        (match Lp.Problem.solve_relaxation ~bounds:[ x, 1., 3. ] p with
         | Lp.Simplex.Optimal { objective; _ } -> check tf "obj" 3. objective
         | _ -> Alcotest.fail "expected optimal"));
    Alcotest.test_case "a spent budget stops the simplex" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var ~ub:2. p "x" in
        let y = Lp.Problem.add_var p "y" in
        Lp.Problem.add_constraint p [ (1., x); (1., y) ] Lp.Simplex.Le 10.;
        Lp.Problem.set_objective p ~sense:`Maximize [ (3., x); (1., y) ];
        let budget = Resilience.Budget.seconds infinity in
        Resilience.Budget.cancel budget;
        match Lp.Problem.solve_relaxation ~budget p with
        | _ -> Alcotest.fail "expected Exhausted"
        | exception Resilience.Budget.Exhausted Resilience.Budget.Cancelled ->
          ());
    Alcotest.test_case "metadata" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_binary p "x" in
        let _y = Lp.Problem.add_var p "y" in
        check Alcotest.int "vars" 2 (Lp.Problem.num_vars p);
        check tb "x integer" true (Lp.Problem.is_integer p x);
        check Alcotest.string "name" "x" (Lp.Problem.var_name p x);
        check Alcotest.int "one integer var" 1
          (List.length (Lp.Problem.integer_vars p)));
    Alcotest.test_case "objective_value" `Quick (fun () ->
        let p = Lp.Problem.create () in
        let x = Lp.Problem.add_var p "x" in
        let y = Lp.Problem.add_var p "y" in
        Lp.Problem.set_objective p ~sense:`Minimize [ (2., x); (-1., y) ];
        check tf "value" 3. (Lp.Problem.objective_value p [| 2.; 1. |]));
  ]

let () =
  Alcotest.run "lp"
    [
      "simplex", simplex_tests;
      "simplex-properties", simplex_property_tests;
      "problem", problem_tests;
      "differential", differential_tests;
      "warm", warm_tests;
    ]
