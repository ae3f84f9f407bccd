type result = {
  cover : bool array;
  size : int;
  lower_bound : int;
  optimal : bool;
}

let is_cover g cover =
  let ok = ref true in
  Ugraph.iter_edges (fun u v -> if not (cover.(u) || cover.(v)) then ok := false) g;
  !ok

let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

(* Remove vertices whose neighbourhood is already covered. *)
let prune_redundant g cover =
  let start, adj = Ugraph.slices g in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to Ugraph.num_nodes g - 1 do
      if cover.(v) then begin
        let needed = ref false and i = ref start.(v) in
        while (not !needed) && !i < start.(v + 1) do
          needed := not cover.(adj.(!i));
          incr i
        done;
        if not !needed then begin
          cover.(v) <- false;
          changed := true
        end
      end
    done
  done

(* The endpoints of a greedy maximal matching, pruned, and the matching's
   size: every cover needs one endpoint of each matched edge. *)
let greedy g =
  let cover = Array.make (Ugraph.num_nodes g) false in
  let matching = Matching.greedy_maximal g in
  List.iter
    (fun (u, v) ->
       cover.(u) <- true;
       cover.(v) <- true)
    matching;
  prune_redundant g cover;
  cover, List.length matching

let greedy_cover g = fst (greedy g)

exception Out_of_time

(* The incumbent met the bound the caller proved: no cover is smaller. *)
exception Closed

(* Branch & bound on an explicit mutable subproblem. Vertices have three
   states: Undecided, In (in cover), Out (excluded). Excluding a vertex
   forces all its undecided neighbours In. *)
let c_nodes = Obs.Counter.make "vc.nodes"

let solve ?(budget = Resilience.Budget.unlimited) ?lower_bound g =
  let n = Ugraph.num_nodes g in
  let start, adj = Ugraph.slices g in
  (* [f] on v's neighbours, in insertion order. *)
  let iter_in_order f v =
    for i = start.(v) to start.(v + 1) - 1 do
      f adj.(i)
    done
  in
  let best_cover, matching = greedy g in
  let root_lb = max matching (Option.value lower_bound ~default:0) in
  (* Only a caller's bound stops the search early, so a search without
     one expands the nodes it always has. *)
  let closes size = lower_bound <> None && size <= root_lb in
  let best_size = ref (count best_cover) in
  let explored = ref 0 in
  let timed_out = ref false in
  (* state: 0 undecided, 1 in, 2 out *)
  let state = Array.make n 0 in
  let in_count = ref 0 in
  let trail = ref [] in
  let push v s =
    state.(v) <- s;
    if s = 1 then incr in_count;
    trail := v :: !trail
  in
  let undo upto =
    while !trail != upto do
      match !trail with
      | [] -> assert false
      | v :: rest ->
        if state.(v) = 1 then decr in_count;
        state.(v) <- 0;
        trail := rest
    done
  in
  (* Matching-based lower bound on the residual graph. *)
  let residual_lb () =
    let used = Array.make n false in
    let lb = ref 0 in
    for u = 0 to n - 1 do
      if state.(u) = 0 && not used.(u) then begin
        (* Match u to its first free neighbour. *)
        let i = ref start.(u) in
        while (not used.(u)) && !i < start.(u + 1) do
          let w = adj.(!i) in
          if state.(w) = 0 && not used.(w) then begin
            used.(u) <- true;
            used.(w) <- true;
            incr lb
          end;
          incr i
        done
      end
    done;
    !lb
  in
  let record_incumbent () =
    (* Close the partial solution greedily: cover residual edges. *)
    let cover = Array.make n false in
    for v = 0 to n - 1 do
      cover.(v) <- state.(v) = 1
    done;
    for u = 0 to n - 1 do
      if state.(u) = 0 then
        iter_in_order
          (fun w ->
             if (state.(w) = 0 && not (cover.(u) || cover.(w))) then
               cover.(u) <- true)
          u
    done;
    prune_redundant g cover;
    let size = count cover in
    if size < !best_size then begin
      best_size := size;
      Array.blit cover 0 best_cover 0 n;
      if closes size then raise Closed
    end
  in
  (* Reduction: degree-0 vertices excluded; degree-1 vertices excluded with
     their neighbour included. Returns residual degrees freshness lazily. *)
  let residual_degree v =
    let d = ref 0 in
    for i = start.(v) to start.(v + 1) - 1 do
      if state.(adj.(i)) = 0 then incr d
    done;
    !d
  in
  let apply_reductions () =
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to n - 1 do
        if state.(v) = 0 then begin
          match residual_degree v with
          | 0 -> push v 2; changed := true
          | 1 ->
            push v 2;
            iter_in_order (fun w -> if state.(w) = 0 then push w 1) v;
            changed := true
          | _ -> ()
        end
      done
    done
  in
  let pick_branch_vertex () =
    let best = ref (-1) in
    let bestd = ref (-1) in
    for v = 0 to n - 1 do
      if state.(v) = 0 then begin
        let d = residual_degree v in
        if d > !bestd then begin
          bestd := d;
          best := v
        end
      end
    done;
    !best
  in
  let rec branch () =
    incr explored;
    if !explored land 255 = 0 then begin
      Resilience.Budget.consume_nodes budget 256;
      if Resilience.Budget.exhausted budget then begin
        timed_out := true;
        raise Out_of_time
      end
    end;
    let mark = !trail in
    apply_reductions ();
    if !in_count + residual_lb () >= !best_size then undo mark
    else begin
      let v = pick_branch_vertex () in
      if v < 0 then begin
        record_incumbent ();
        undo mark
      end
      else begin
        (* Branch 1: v in the cover. *)
        let mark2 = !trail in
        push v 1;
        branch ();
        undo mark2;
        (* Branch 2: v out, neighbours in. *)
        push v 2;
        iter_in_order (fun w -> if state.(w) = 0 then push w 1) v;
        branch ();
        undo mark
      end
    end
  in
  if not (closes !best_size) then
    (try branch () with Out_of_time | Closed -> ());
  Obs.Counter.add c_nodes !explored;
  let optimal = (not !timed_out) || !best_size <= root_lb in
  let lower_bound = if optimal then !best_size else root_lb in
  assert (is_cover g best_cover);
  {
    cover = best_cover;
    size = !best_size;
    lower_bound = min lower_bound !best_size;
    optimal;
  }
