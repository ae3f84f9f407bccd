type status = Optimal | Feasible | No_incumbent | Infeasible

type trace_point = {
  t_elapsed : float;
  t_incumbent : float option;
  t_bound : float;
  t_gap : float;
}

type result = {
  status : status;
  objective : float option;
  solution : float array option;
  bound : float;
  gap : float;
  nodes : int;
  elapsed : float;
  trace : trace_point list;
}

let relative_gap ~incumbent ~bound =
  match incumbent with
  | None -> 1.0
  | Some inc ->
    let denom = max 1e-10 (abs_float inc) in
    min 1.0 (abs_float (inc -. bound) /. denom)

(* Binary min-heap on a float key. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) option array; mutable len : int }

  let create () = { data = Array.make 64 None; len = 0 }
  let is_empty h = h.len = 0
  let length h = h.len

  (* The one accessor for occupied slots. Indices below [len] are always
     [Some] by construction, so a vacant read is a heap invariant bug —
     flagged as such rather than through scattered [assert false]s. *)
  let entry h i =
    match h.data.(i) with
    | Some e -> e
    | None -> invalid_arg "Branch_bound.Heap: vacant slot read"

  let key h i = fst (entry h i)

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h k v =
    if h.len = Array.length h.data then begin
      let bigger = Array.make (2 * h.len) None in
      Array.blit h.data 0 bigger 0 h.len;
      h.data <- bigger
    end;
    h.data.(h.len) <- Some (k, v);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while !i > 0 && key h ((!i - 1) / 2) > key h !i do
      let p = (!i - 1) / 2 in
      swap h p !i;
      i := p
    done

  let peek_key h = key h 0

  let pop h =
    let _, top = entry h 0 in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    h.data.(h.len) <- None;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && key h l < key h !smallest then smallest := l;
      if r < h.len && key h r < key h !smallest then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

(* A node is a conjunction of variable-bound tightenings, newest first;
   its [score] is the parent's LP value in minimisation direction (a
   valid bound). [parent] is the parent's final tableau, shared with the
   sibling: a child re-optimises it after its one new bound. *)
type node = {
  fixings : (Lp.Problem.var * float * float) list;
  score : float;
  parent : saved option;
}

and saved = { tableau : Lp.Simplex.tableau; mutable holders : int }

(* The floats the saved tableaux may keep alive at once (about 8 MB); a
   node solved past it hands no tableau down, and its children start
   from the slack basis. *)
let max_saved_floats = 1_000_000

let c_nodes = Obs.Counter.make "bb.nodes"
let c_pivots = Obs.Counter.make "lp.pivots"
let c_lattice_pruned = Obs.Counter.make "bb.lattice_pruned"

let status_name = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | No_incumbent -> "no-incumbent"
  | Infeasible -> "infeasible"

let integer_tolerance = 1e-6

let solve ?(budget = Resilience.Budget.unlimited) ?initial ?known_bound
    ?objective_step problem =
  let start = Obs.Clock.now () in
  let elapsed () = Obs.Clock.now () -. start in
  let dir =
    match Lp.Problem.sense problem with `Minimize -> 1.0 | `Maximize -> -1.0
  in
  let integer_vars = Array.of_list (Lp.Problem.integer_vars problem) in
  (* Scores are dir·objective so the search always minimises; the
     relaxations' objectives (Problem.lp's costs) already are. *)
  let incumbent_score = ref infinity in
  let have_incumbent = ref false in
  let incumbent_point = ref None in
  (match initial with
   | Some (point, value) ->
     incumbent_score := dir *. value;
     have_incumbent := true;
     incumbent_point := Some (Array.copy point)
   | None -> ());
  let known_score =
    match known_bound with Some b -> dir *. b | None -> neg_infinity
  in
  (* An incumbent that meets the bound proved outside the search is
     optimal: no node can improve on it by more than the tolerance. *)
  let meets_known () =
    !have_incumbent && !incumbent_score <= known_score +. 1e-9
  in
  (* Every integer point's score lies on step·ℤ, so a node whose score,
     rounded up to that lattice, meets the incumbent holds no strictly
     better point. [lattice_pruned] counts the nodes this rule prunes
     that the plain comparison would have kept. *)
  let lattice_pruned = ref 0 in
  let lift =
    match objective_step with
    | None -> Fun.id
    | Some step when step > 0. ->
      fun score -> step *. ceil ((score /. step) -. integer_tolerance)
    | Some _ ->
      invalid_arg "Branch_bound.solve: objective_step must be positive"
  in
  let prunes score =
    !have_incumbent
    && (score >= !incumbent_score -. 1e-9
        ||
        let on_lattice = lift score >= !incumbent_score -. 1e-9 in
        if on_lattice then incr lattice_pruned;
        on_lattice)
  in
  let trace = ref [] in
  let nodes = ref 0 in
  let heap = Heap.create () in
  Heap.push heap neg_infinity
    { fixings = []; score = neg_infinity; parent = None };
  let best_bound = ref neg_infinity in
  let incumbent () =
    if !have_incumbent then Some (dir *. !incumbent_score) else None
  in
  let record () =
    (* Before the first node is expanded there is no proven bound: report
       the (infinite) trivial one so the gap honestly starts at 100%. *)
    let bound_obj = dir *. !best_bound in
    let gap = relative_gap ~incumbent:(incumbent ()) ~bound:bound_obj in
    trace :=
      {
        t_elapsed = elapsed ();
        t_incumbent = incumbent ();
        t_bound = bound_obj;
        t_gap = gap;
      }
      :: !trace;
    Obs.Span.event "bb.progress"
      ~attrs:
        [ "nodes", string_of_int !nodes;
          ( "incumbent",
            match incumbent () with
            | Some v -> Printf.sprintf "%.9g" v
            | None -> "-" );
          "bound", Printf.sprintf "%.9g" bound_obj;
          "gap", Printf.sprintf "%.4f" gap ]
  in
  (* Built on the first relaxation: a search the warm start closes
     builds no dense form. *)
  let lp = lazy (Lp.Problem.lp problem) in
  (* One workspace for every relaxation of this search; it is dropped
     with the search, so racing searches never share one. *)
  let workspace = Lp.Simplex.workspace () in
  let saved_floats = ref 0 in
  let let_go s =
    s.holders <- s.holders - 1;
    if s.holders = 0 then begin
      saved_floats := !saved_floats - Lp.Simplex.floats s.tableau;
      Lp.Simplex.release workspace s.tableau
    end
  in
  (* The node's starting tableau: its parent's with the one new bound
     (copied unless this is the last holder), or the slack basis under
     every fixing. *)
  let tableau_of node =
    match node.parent, node.fixings with
    | Some s, (v, lo, hi) :: _ ->
      let t =
        if s.holders > 1 then begin
          s.holders <- s.holders - 1;
          Lp.Simplex.copy workspace s.tableau
        end
        else begin
          s.holders <- 0;
          saved_floats := !saved_floats - Lp.Simplex.floats s.tableau;
          s.tableau
        end
      in
      Lp.Simplex.tighten t (v :> int) ~lo ~hi;
      t
    | _ ->
      let t = Lp.Simplex.start workspace (Lazy.force lp) in
      List.iter
        (fun ((v : Lp.Problem.var), lo, hi) ->
           Lp.Simplex.tighten t (v :> int) ~lo ~hi)
        node.fixings;
      t
  in
  (* Expansion of one node given its LP relaxation outcome; [tableau]
     is released or handed to the children. *)
  let process node tableau outcome =
    let branched =
      match outcome with
      | Lp.Simplex.Unbounded ->
        invalid_arg "Branch_bound.solve: relaxation unbounded"
      | Lp.Simplex.Infeasible -> false
      | Lp.Simplex.Optimal { objective = score; solution } ->
        if prunes score then false
        else begin
          let branch_var = ref None in
          let best_frac = ref integer_tolerance in
          Array.iter
            (fun (v : Lp.Problem.var) ->
               let x = solution.((v :> int)) in
               let frac = abs_float (x -. Float.round x) in
               if frac > !best_frac then begin
                 best_frac := frac;
                 branch_var := Some (v, x)
               end)
            integer_vars;
          match !branch_var with
          | None ->
            (* Integral solution: round off tolerance noise and accept. *)
            if (not !have_incumbent) || score < !incumbent_score -. 1e-9
            then begin
              incumbent_score := score;
              have_incumbent := true;
              incumbent_point := Some (Array.copy solution);
              record ()
            end;
            false
          | Some (v, x) ->
            let size = Lp.Simplex.floats tableau in
            let parent =
              if !saved_floats + size <= max_saved_floats then begin
                saved_floats := !saved_floats + size;
                Some { tableau; holders = 2 }
              end
              else None
            in
            let lo = floor x in
            Heap.push heap score
              { fixings = (v, 0., lo) :: node.fixings; score; parent };
            Heap.push heap score
              { fixings = (v, lo +. 1., infinity) :: node.fixings; score; parent };
            parent <> None
        end
    in
    if not branched then Lp.Simplex.release workspace tableau
  in
  (* The best surviving node of the frontier, best-bound-first; nodes
     the incumbent already prunes are popped and dropped. *)
  let rec next_node () =
    if Heap.is_empty heap then None
    else begin
      let node = Heap.pop heap in
      let bound_improved = node.score > !best_bound +. 1e-9 in
      best_bound := max !best_bound node.score;
      if bound_improved || !nodes land 63 = 0 then record ();
      if prunes node.score then begin
        Option.iter let_go node.parent;
        next_node ()
      end
      else Some node
    end
  in
  let hit_limit = ref false in
  Obs.Span.with_ "branch-bound" @@ fun () ->
  (* The budget is checked before each expansion. A relaxation the
     budget stops leaves its node on the frontier, so the final bound
     still covers it, and the search ends. *)
  while (not !hit_limit) && (not (meets_known ())) && not (Heap.is_empty heap)
  do
    if Resilience.Budget.exhausted budget then hit_limit := true
    else
      match next_node () with
      | None -> ()
      | Some node ->
        incr nodes;
        Resilience.Budget.consume_nodes budget 1;
        let tableau = tableau_of node in
        (match
           Obs.Span.with_ "lp-relax" (fun () ->
               match Lp.Simplex.optimise ~budget workspace tableau with
               | outcome -> Some outcome
               | exception Resilience.Budget.Exhausted _ -> None)
         with
         | Some outcome -> process node tableau outcome
         | None ->
           Heap.push heap node.score { node with parent = None };
           hit_limit := true)
  done;
  let closed = meets_known () in
  let exhausted = closed || Heap.is_empty heap in
  let final_score_bound =
    if exhausted then
      if !have_incumbent then !incumbent_score
      else !best_bound
    else max known_score (max !best_bound (Heap.peek_key heap))
  in
  let final_score_bound =
    if !have_incumbent then min final_score_bound !incumbent_score
    else final_score_bound
  in
  let bound_obj = dir *. final_score_bound in
  let status =
    if !have_incumbent then
      if
        exhausted
        || relative_gap ~incumbent:(incumbent ()) ~bound:bound_obj < 1e-9
      then Optimal
      else Feasible
    else if exhausted then Infeasible
    else No_incumbent
  in
  best_bound := final_score_bound;
  record ();
  Obs.Counter.add c_nodes !nodes;
  Obs.Counter.add c_pivots (Lp.Simplex.pivots workspace);
  Obs.Counter.add c_lattice_pruned !lattice_pruned;
  Obs.Span.add_attr "status" (status_name status);
  Obs.Span.add_attr "nodes" (string_of_int !nodes);
  Obs.Span.add_attr "stop"
    (if closed then "bound" else if exhausted then "exhausted" else "limit");
  {
    status;
    objective = incumbent ();
    solution = !incumbent_point;
    bound = bound_obj;
    gap = relative_gap ~incumbent:(incumbent ()) ~bound:bound_obj;
    nodes = !nodes;
    elapsed = elapsed ();
    trace = List.rev !trace;
  }
