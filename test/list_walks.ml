(* The labeling rungs' graph walks as they were before they read the
   graph's neighbour slots through a cursor: [Oct.greedy],
   [Balance.upgrade_index] and [Vertex_cover.solve] walking the list
   [neighbors] builds for each vertex, in insertion order, as the
   removed [Graphs.Ugraph.neighbors] did (the shims below put it back
   under that name). Kept verbatim, bar the opens, [Vertex_cover.solve]
   returning its node count instead of adding it to the [vc.nodes]
   counter, and the parts no test reads, as the oracle of test_compact's
   walks group: every order, tie-break and result must stay the same. *)

open Graphs

(* A vertex's neighbours in insertion order. *)
let neighbors g v =
  let start, adj = Ugraph.slices g in
  Array.to_list (Array.sub adj start.(v) (start.(v + 1) - start.(v)))

module Ugraph = struct
  include Ugraph

  let neighbors = neighbors
end

module Graphs = struct
  module Ugraph = Ugraph
end

module Oct = struct
  open Oct

  let greedy g =
    let start = Obs.Clock.now () in
    let n = Ugraph.num_nodes g in
    (* BFS colouring; a vertex that conflicts with an already-coloured
       neighbour is deferred to the transversal. Processing in decreasing
       degree order keeps high-degree troublemakers flexible. *)
    let color = Array.make n (-1) in
    let in_oct = Array.make n false in
    let try_color v =
      let c0 = ref false and c1 = ref false in
      List.iter
        (fun w ->
           if not in_oct.(w) then
             match color.(w) with
             | 0 -> c0 := true
             | 1 -> c1 := true
             | _ -> ())
        (Ugraph.neighbors g v);
      match !c0, !c1 with
      | _, false -> color.(v) <- 1; true
      | false, true -> color.(v) <- 0; true
      | true, true -> false
    in
    let queue = Queue.create () in
    let visited = Array.make n false in
    for s = 0 to n - 1 do
      if not visited.(s) then begin
        visited.(s) <- true;
        Queue.add s queue;
        while not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          if not (try_color v) then in_oct.(v) <- true;
          List.iter
            (fun w ->
               if not visited.(w) then begin
                 visited.(w) <- true;
                 Queue.add w queue
               end)
            (Ugraph.neighbors g v)
        done
      end
    done;
    (* Re-insertion pass: an OCT vertex whose coloured neighbourhood is
       monochromatic can rejoin the bipartite part. *)
    for v = 0 to n - 1 do
      if in_oct.(v) then begin
        color.(v) <- -1;
        if try_color v then in_oct.(v) <- false
      end
    done;
    let transversal = ref [] in
    for v = n - 1 downto 0 do
      if in_oct.(v) then transversal := v :: !transversal
    done;
    {
      transversal = !transversal;
      optimal = !transversal = [];
      lower_bound = 0;
      elapsed = Obs.Clock.now () -. start;
    }
end

module Vertex_cover = struct
  open Vertex_cover

  let count = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0

  (* Remove vertices whose neighbourhood is already covered. *)
  let prune_redundant g cover =
    let changed = ref true in
    while !changed do
      changed := false;
      for v = 0 to Ugraph.num_nodes g - 1 do
        if cover.(v) then begin
          let needed =
            List.exists (fun w -> not cover.(w)) (Ugraph.neighbors g v)
          in
          if not needed then begin
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

  exception Out_of_time

  (* Branch & bound on an explicit mutable subproblem. Vertices have three
     states: Undecided, In (in cover), Out (excluded). Excluding a vertex
     forces all its undecided neighbours In. *)
  let solve ?(budget = Resilience.Budget.unlimited) g =
    let n = Ugraph.num_nodes g in
    let neighbors = Array.init n (fun v -> Array.of_list (Ugraph.neighbors g v)) in
    let best_cover, root_lb = greedy g in
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
          let rec pick = function
            | [] -> ()
            | w :: rest ->
              if state.(w) = 0 && not used.(w) then begin
                used.(u) <- true;
                used.(w) <- true;
                incr lb
              end
              else pick rest
          in
          pick (Array.to_list neighbors.(u))
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
          Array.iter
            (fun w ->
               if (state.(w) = 0 && not (cover.(u) || cover.(w))) then
                 cover.(u) <- true)
            neighbors.(u)
      done;
      prune_redundant g cover;
      let size = count cover in
      if size < !best_size then begin
        best_size := size;
        Array.blit cover 0 best_cover 0 n
      end
    in
    (* Reduction: degree-0 vertices excluded; degree-1 vertices excluded with
       their neighbour included. Returns residual degrees freshness lazily. *)
    let residual_degree v =
      let d = ref 0 in
      Array.iter (fun w -> if state.(w) = 0 then incr d) neighbors.(v);
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
              Array.iter (fun w -> if state.(w) = 0 then push w 1) neighbors.(v);
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
          Array.iter (fun w -> if state.(w) = 0 then push w 1) neighbors.(v);
          branch ();
          undo mark
        end
      end
    in
    (try branch () with Out_of_time -> ());
    let optimal = (not !timed_out) || !best_size <= root_lb in
    let lower_bound = if optimal then !best_size else root_lb in
    assert (is_cover g best_cover);
    ( {
        cover = best_cover;
        size = !best_size;
        lower_bound = min lower_bound !best_size;
        optimal;
      },
      !explored )
end

module Balance = struct
  open Compact

  let aligned_nodes (bg : Types.bdd_graph) =
    List.sort_uniq compare
      (bg.terminal
       :: List.filter_map
            (fun (_, root) ->
               match root with
               | Types.Node v -> Some v
               | Types.Const_false -> None)
            bg.roots)

  (* How a residual component enters the balance: free components are
     flipped by the sign DP; forced ones are flipped or not so that their
     aligned nodes become H. Either way with [delta] = its colour-0 minus
     its colour-1 nodes, VH nodes left out. *)
  type entry = Free of int | Forced of bool * int

  (* The rule for one residual component, shared by [orient] and the
     upgrade index, from its nodes ([n0], [n1]) and aligned nodes ([a0],
     [a1]) of each colour, colour 0 being its smallest node's. Aligned nodes
     of both colours conflict, since no flip puts both on H: the smaller
     aligned side, colour 0 on a tie, is upgraded to VH and leaves its
     colour's count. Returns the upgraded colour (-1 for none) and the
     entry. *)
  let component_rule ~n0 ~n1 ~a0 ~a1 =
    if a0 > 0 && a1 > 0 then
      if a0 <= a1 then 0, Forced (true, n0 - a0 - n1)
      else 1, Forced (false, n0 - (n1 - a1))
    else if a0 > 0 then -1, Forced (false, n0 - n1)
    else if a1 > 0 then -1, Forced (true, n0 - n1)
    else -1, Free (n0 - n1)

  (* A component's contribution to rows − cols: an unflipped component
     maps colour 0 to H, a flipped one colour 1. VH nodes add 1 to both
     rows and cols, so they do not count. *)
  let contribution flipped delta = if flipped then -delta else delta

  type upgrade_index = {
    graph : Graphs.Ugraph.t;
    comp : int array;  (* -1 on the transversal *)
    color : int array;
    disc : int array;
    low : int array;
    parent : int array;  (* -1 at a component's root *)
    is_aligned : bool array;
    sub : int array;  (* nodes of colour b in v's subtree, at [2v + b] *)
    sub_aligned : int array;  (* aligned ones, likewise *)
    sub_min : int array;  (* the smallest node in v's subtree *)
    root : int array;  (* per component: its smallest node *)
    free_slot : int array;  (* per component: its place in [free], or -1 *)
    free : int array;  (* the free components' deltas *)
    vh : int;  (* [orient]'s VH count at this transversal *)
    base : int;  (* the forced components' contributions, summed *)
  }

  (* [component_rule] as counts: the aligned nodes it upgrades to VH, and
     the entry. *)
  let settle ~n0 ~n1 ~a0 ~a1 =
    let up, entry = component_rule ~n0 ~n1 ~a0 ~a1 in
    (if up = 0 then a0 else if up = 1 then a1 else 0), entry

  (* The component whose DFS root is [r], settled. *)
  let settle_root ~sub ~sub_aligned r =
    settle ~n0:sub.(2 * r) ~n1:sub.((2 * r) + 1) ~a0:sub_aligned.(2 * r)
      ~a1:sub_aligned.((2 * r) + 1)

  let upgrade_index ?(alignment = false) (bg : Types.bdd_graph) ~transversal =
    let g = bg.graph in
    let n = Graphs.Ugraph.num_nodes g in
    if Array.length transversal <> n then
      invalid_arg "Balance.upgrade_index: arity mismatch";
    let is_aligned = Array.make n false in
    if alignment then
      List.iter (fun v -> is_aligned.(v) <- true) (aligned_nodes bg);
    let comp = Array.make n (-1) and color = Array.make n 0 in
    let disc = Array.make n (-1) and low = Array.make n 0 in
    let parent = Array.make n (-1) and sub_min = Array.make n 0 in
    let sub = Array.make (2 * n) 0 and sub_aligned = Array.make (2 * n) 0 in
    (* The DFS stack, and each stacked node's neighbours still to scan. *)
    let stack = Array.make n 0 and pending = Array.make n [] in
    let roots = ref [] and k = ref 0 and time = ref 0 in
    let enter v p =
      comp.(v) <- !k;
      parent.(v) <- p;
      color.(v) <- (if p < 0 then 0 else 1 - color.(p));
      disc.(v) <- !time;
      low.(v) <- !time;
      incr time;
      sub.((2 * v) + color.(v)) <- 1;
      if is_aligned.(v) then sub_aligned.((2 * v) + color.(v)) <- 1;
      sub_min.(v) <- v;
      pending.(v) <- Graphs.Ugraph.neighbors g v
    in
    for s = 0 to n - 1 do
      if (not transversal.(s)) && disc.(s) < 0 then begin
        roots := s :: !roots;
        enter s (-1);
        stack.(0) <- s;
        let top = ref 0 in
        while !top >= 0 do
          let u = stack.(!top) in
          match pending.(u) with
          | w :: rest ->
            pending.(u) <- rest;
            if transversal.(w) then ()
            else if disc.(w) < 0 then begin
              enter w u;
              incr top;
              stack.(!top) <- w
            end
            else if color.(w) = color.(u) then
              invalid_arg "Balance.upgrade_index: the residual has an odd cycle"
            else low.(u) <- min low.(u) disc.(w)
          | [] ->
            decr top;
            let p = parent.(u) in
            if p >= 0 then begin
              low.(p) <- min low.(p) low.(u);
              for b = 0 to 1 do
                sub.((2 * p) + b) <- sub.((2 * p) + b) + sub.((2 * u) + b);
                sub_aligned.((2 * p) + b) <-
                  sub_aligned.((2 * p) + b) + sub_aligned.((2 * u) + b)
              done;
              sub_min.(p) <- min sub_min.(p) sub_min.(u)
            end
        done;
        incr k
      end
    done;
    let root = Array.of_list (List.rev !roots) in
    let free_slot = Array.make !k (-1) and free = ref [] and nfree = ref 0 in
    let vh = ref 0 and base = ref 0 in
    Array.iter (fun t -> if t then incr vh) transversal;
    Array.iteri
      (fun c r ->
         let upgraded, entry = settle_root ~sub ~sub_aligned r in
         vh := !vh + upgraded;
         match entry with
         | Forced (flipped, delta) -> base := !base + contribution flipped delta
         | Free delta ->
           free_slot.(c) <- !nfree;
           incr nfree;
           free := delta :: !free)
      root;
    {
      graph = g; comp; color; disc; low; parent; is_aligned; sub; sub_aligned;
      sub_min; root; free_slot; free = Array.of_list (List.rev !free);
      vh = !vh; base = !base;
    }

end
