let labeling_to_point ~num_point_vars ~xv ~xh (labeling : Types.labeling) =
  let point = Array.make num_point_vars 0. in
  Array.iteri
    (fun i l ->
       let v, h =
         match l with
         | Types.V -> 1., 0.
         | Types.H -> 0., 1.
         | Types.VH -> 1., 1.
       in
       point.((xv.(i) : Lp.Problem.var :> int)) <- v;
       point.((xh.(i) : Lp.Problem.var :> int)) <- h)
    labeling.labels;
  point

exception Infeasible of string

(* Odd-cycle rows go into models of at most this many nodes, the graphs
   Auto's MIP rung labels ([Pipeline.mip_node_threshold]). *)
let cycle_rows_node_limit = 160

let c_cycle_rows = Obs.Counter.make "mip.cycle_rows"

let max_step_denominator = 16

let objective_step ~gamma =
  let rec find q =
    if q > max_step_denominator then None
    else
      let p = gamma *. float_of_int q in
      if abs_float (p -. Float.round p) < 1e-9 then Some (1. /. float_of_int q)
      else find (q + 1)
  in
  if gamma < 0. || gamma > 1. then None else find 1

let solve ?budget ?(alignment = false) ?(gamma = 0.5) ?warm_start
    ?(oct_cut = 0) ?max_rows ?max_cols (bg : Types.bdd_graph) =
  let start = Obs.Clock.now () in
  let n = Graphs.Ugraph.num_nodes bg.graph in
  let p = Lp.Problem.create () in
  let xv = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "v%d" i)) in
  let xh = Array.init n (fun i -> Lp.Problem.add_binary p (Printf.sprintf "h%d" i)) in
  let d = Lp.Problem.add_var p "D" in
  (* Each node carries at least one label. *)
  for i = 0 to n - 1 do
    Lp.Problem.add_constraint p [ (1., xv.(i)); (1., xh.(i)) ] Lp.Simplex.Ge 1.
  done;
  (* Connection constraints: H labels and V labels each cover every edge. *)
  Graphs.Ugraph.iter_edges
    (fun i j ->
       Lp.Problem.add_constraint p [ (1., xh.(i)); (1., xh.(j)) ] Lp.Simplex.Ge 1.;
       Lp.Problem.add_constraint p [ (1., xv.(i)); (1., xv.(j)) ] Lp.Simplex.Ge 1.)
    bg.graph;
  (* D ≥ R and D ≥ C. *)
  let rows_terms = Array.to_list (Array.map (fun v -> -1., v) xh) in
  let cols_terms = Array.to_list (Array.map (fun v -> -1., v) xv) in
  Lp.Problem.add_constraint p ((1., d) :: rows_terms) Lp.Simplex.Ge 0.;
  Lp.Problem.add_constraint p ((1., d) :: cols_terms) Lp.Simplex.Ge 0.;
  (* Strengthening cuts: S ≥ n + k_lb and D ≥ ⌈(n + k_lb) / 2⌉. *)
  let s_terms =
    Array.to_list (Array.map (fun v -> 1., v) xv)
    @ Array.to_list (Array.map (fun v -> 1., v) xh)
  in
  Lp.Problem.add_constraint p s_terms Lp.Simplex.Ge (float_of_int (n + oct_cut));
  Lp.Problem.add_constraint p [ (1., d) ] Lp.Simplex.Ge
    (ceil (float_of_int (n + oct_cut) /. 2.));
  (* Row/column capacities (the constrained formulation of Section III). *)
  (match max_rows with
   | Some cap ->
     Lp.Problem.add_constraint p
       (Array.to_list (Array.map (fun v -> 1., v) xh))
       Lp.Simplex.Le (float_of_int cap)
   | None -> ());
  (match max_cols with
   | Some cap ->
     Lp.Problem.add_constraint p
       (Array.to_list (Array.map (fun v -> 1., v) xv))
       Lp.Simplex.Le (float_of_int cap)
   | None -> ());
  (* Alignment (Eq 7): terminal and roots on wordlines. *)
  if alignment then begin
    let force_h node =
      Lp.Problem.add_constraint p [ (1., xh.(node)) ] Lp.Simplex.Ge 1.
    in
    force_h bg.terminal;
    List.iter
      (fun (_, root) ->
         match root with
         | Types.Node v -> force_h v
         | Types.Const_false -> ())
      bg.roots
  end;
  (* Objective: γ·S + (1−γ)·D. *)
  let objective =
    ((1. -. gamma), d)
    :: (Array.to_list (Array.map (fun v -> gamma, v) xv)
        @ Array.to_list (Array.map (fun v -> gamma, v) xh))
  in
  Lp.Problem.set_objective p ~sense:`Minimize objective;
  let warm =
    match warm_start with
    | Some l -> l
    | None -> Label_oct.greedy ~alignment ~gamma bg
  in
  let warm_feasible =
    (match max_rows with Some cap -> warm.Types.rows <= cap | None -> true)
    && match max_cols with Some cap -> warm.Types.cols <= cap | None -> true
  in
  let initial =
    if not warm_feasible then None
    else begin
      let point =
        labeling_to_point ~num_point_vars:(Lp.Problem.num_vars p) ~xv ~xh warm
      in
      point.((d : Lp.Problem.var :> int)) <-
        float_of_int (Types.max_dimension warm);
      (* Scored at this solve's γ: [warm.objective] holds the value at
         the γ the warm start was labelled with. *)
      Some
        ( point,
          Types.objective_of ~gamma ~rows:warm.Types.rows ~cols:warm.Types.cols )
    end
  in
  (* The objective bound the search may stop at: the cut rows' own
     γ(n + c) + (1 − γ)⌈(n + c)/2⌉, or the warm start's proven bound when
     it was labelled at this γ. Capacities and alignment only remove
     labelings, so neither bound can exceed the optimum here. *)
  let cut_bound =
    let s_lb = float_of_int (n + oct_cut) in
    (gamma *. s_lb) +. ((1. -. gamma) *. ceil (s_lb /. 2.))
  in
  let known_bound =
    if warm.Types.gamma = gamma then max cut_bound warm.Types.lower_bound
    else cut_bound
  in
  (* Odd-cycle rows: the H labels and the V labels each cover every
     edge, and covering an odd cycle of 2m + 1 nodes takes m + 1 of
     them, so each packed cycle C gives Σ_C xH ≥ (|C| + 1)/2 and the
     same for xV, under alignment and capacities alike. A warm start
     that already meets the bound closes the search before any
     relaxation, so it gets none. *)
  let closes =
    match initial with
    | Some (_, value) -> value <= known_bound +. 1e-9
    | None -> false
  in
  let cycles =
    if n <= cycle_rows_node_limit && not closes then
      Graphs.Oct.odd_cycle_packing bg.graph
    else []
  in
  List.iter
    (fun cycle ->
       let half = float_of_int ((List.length cycle + 1) / 2) in
       List.iter
         (fun x ->
            Lp.Problem.add_constraint p
              (List.map (fun i -> 1., x.(i)) cycle)
              Lp.Simplex.Ge half)
         [ xh; xv ])
    cycles;
  Obs.Counter.add c_cycle_rows (2 * List.length cycles);
  let result =
    Milp.Branch_bound.solve ?budget ?initial ~known_bound
      ?objective_step:(objective_step ~gamma) p
  in
  if result.status = Milp.Branch_bound.Infeasible then
    raise
      (Infeasible
         (Printf.sprintf
            "no VH-labeling within max_rows=%s, max_cols=%s"
            (match max_rows with Some c -> string_of_int c | None -> "inf")
            (match max_cols with Some c -> string_of_int c | None -> "inf")));
  let labels =
    match result.solution with
    | None when not warm_feasible ->
      raise
        (Infeasible
           "budget exhausted before any labeling satisfying the \
            capacity constraints was found")
    | Some sol ->
      Array.init n (fun i ->
          let v = sol.((xv.(i) :> int)) > 0.5 in
          let h = sol.((xh.(i) :> int)) > 0.5 in
          match v, h with
          | true, true -> Types.VH
          | true, false -> Types.V
          | false, true -> Types.H
          | false, false -> assert false)
    | None -> Array.copy warm.labels
  in
  let optimal = result.status = Milp.Branch_bound.Optimal in
  Types.make_labeling bg ~gamma ~optimal ~lower_bound:result.bound
    ~solve_time:(Obs.Clock.now () -. start)
    ~method_name:"mip" ~trace:result.trace labels
