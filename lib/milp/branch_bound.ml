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

(* A node is a conjunction of variable-bound tightenings; its [score] is
   the parent's LP value in minimisation direction (a valid bound). *)
type node = {
  fixings : (Lp.Problem.var * float * float) list;
  score : float;
}

let c_nodes = Obs.Counter.make "bb.nodes"

let integer_tolerance = 1e-6

let solve ?(budget = Resilience.Budget.unlimited) ?(node_limit = max_int)
    ?initial ?(jobs = 1) problem =
  let jobs = max 1 jobs in
  let start = Obs.Clock.now () in
  let elapsed () = Obs.Clock.now () -. start in
  let dir =
    match Lp.Problem.sense problem with `Minimize -> 1.0 | `Maximize -> -1.0
  in
  let integer_vars = Array.of_list (Lp.Problem.integer_vars problem) in
  (* Scores are dir·objective so the search always minimises. *)
  let incumbent_score = ref infinity in
  let have_incumbent = ref false in
  let incumbent_point = ref None in
  (match initial with
   | Some (point, value) ->
     incumbent_score := dir *. value;
     have_incumbent := true;
     incumbent_point := Some (Array.copy point)
   | None -> ());
  let trace = ref [] in
  let nodes = ref 0 in
  let proved_infeasible_root = ref false in
  let heap = Heap.create () in
  Heap.push heap neg_infinity { fixings = []; score = neg_infinity };
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
  (* Expansion of one node given its LP relaxation outcome. The search
     loop runs this strictly sequentially (merging in frontier-pop
     order), so incumbent and heap updates are ordered. *)
  let process node outcome =
    match outcome with
    | Lp.Simplex.Unbounded ->
      invalid_arg "Branch_bound.solve: relaxation unbounded"
    | Lp.Simplex.Infeasible ->
      if node.fixings = [] then proved_infeasible_root := true
    | Lp.Simplex.Optimal { objective; solution } ->
      let score = dir *. objective in
      if not (!have_incumbent && score >= !incumbent_score -. 1e-9) then begin
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
          if (not !have_incumbent) || score < !incumbent_score -. 1e-9 then begin
            incumbent_score := score;
            have_incumbent := true;
            incumbent_point := Some (Array.copy solution);
            record ()
          end
        | Some (v, x) ->
          let lo = floor x in
          Heap.push heap score
            { fixings = (v, 0., lo) :: node.fixings; score };
          Heap.push heap score
            { fixings = (v, lo +. 1., infinity) :: node.fixings; score }
      end
  in
  let hit_limit = ref false in
  Obs.Span.with_ ~attrs:[ "jobs", string_of_int jobs ] "branch-bound"
  @@ fun () ->
  (* A relaxation the budget stops is [None]: its node goes back on the
     frontier, so the final bound still covers it, and the search ends. *)
  let relax node =
    Obs.Span.with_ "lp-relax" (fun () ->
        match
          Lp.Problem.solve_relaxation ~budget ~bounds:node.fixings problem
        with
        | outcome -> Some outcome
        | exception Resilience.Budget.Exhausted _ -> None)
  in
  let merge node = function
    | Some outcome -> process node outcome
    | None ->
      Heap.push heap node.score node;
      hit_limit := true
  in
  (* Synchronous rounds, best-bound-first. Each round refills up to
     [jobs] surviving nodes from the global frontier, solves their LP
     relaxations on the pool, and merges the outcomes sequentially in
     frontier-pop order — so for a fixed [jobs] the exploration is fully
     deterministic. The shared incumbent is consulted twice per node: at
     refill (pruning before the LP is paid for) and again at merge
     (pruning against incumbents found earlier in the same round). Node
     and time limits are enforced at refill, so a round never admits
     more nodes than the remaining node budget. At [jobs = 1] every
     round is one node, solved inline: no pool task, so no pool fault
     site. *)
  Parallel.with_pool ~jobs (fun pool ->
  while (not !hit_limit) && not (Heap.is_empty heap) do
    if Resilience.Budget.exhausted budget || !nodes >= node_limit then
      hit_limit := true
    else begin
      let batch = ref [] in
      let admitted = ref 0 in
      let cap = min jobs (node_limit - !nodes) in
      while !admitted < cap && not (Heap.is_empty heap) do
        let node = Heap.pop heap in
        let bound_improved = node.score > !best_bound +. 1e-9 in
        best_bound := max !best_bound node.score;
        if bound_improved || !nodes land 63 = 0 then record ();
        if not (!have_incumbent && node.score >= !incumbent_score -. 1e-9)
        then begin
          incr nodes;
          Resilience.Budget.consume_nodes budget 1;
          batch := node :: !batch;
          incr admitted
        end
      done;
      match !batch with
      | [ node ] when jobs = 1 -> merge node (relax node)
      | batch ->
        let batch = Array.of_list (List.rev batch) in
        let outcomes =
          Parallel.run pool (Array.map (fun node () -> relax node) batch)
        in
        Array.iteri (fun i outcome -> merge batch.(i) outcome) outcomes
    end
  done);
  let exhausted = Heap.is_empty heap in
  let final_score_bound =
    if exhausted then
      if !have_incumbent then !incumbent_score
      else !best_bound
    else max !best_bound (Heap.peek_key heap)
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
    else if exhausted && !proved_infeasible_root then Infeasible
    else if exhausted then Infeasible
    else No_incumbent
  in
  best_bound := final_score_bound;
  record ();
  Obs.Counter.add c_nodes !nodes;
  Obs.Span.add_attr "status" (match status with
    | Optimal -> "optimal"
    | Feasible -> "feasible"
    | No_incumbent -> "no-incumbent"
    | Infeasible -> "infeasible");
  Obs.Span.add_attr "nodes" (string_of_int !nodes);
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

let status_name = function
  | Optimal -> "optimal"
  | Feasible -> "feasible"
  | No_incumbent -> "no-incumbent"
  | Infeasible -> "infeasible"

let json_of_certificate r =
  let jf v = Printf.sprintf "%.17g" v in
  Printf.sprintf "{\"status\":\"%s\",\"objective\":%s,\"bound\":%s,\"gap\":%s}"
    (status_name r.status)
    (match r.objective with Some v -> jf v | None -> "null")
    (jf r.bound) (jf r.gap)
