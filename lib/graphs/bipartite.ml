let bfs_color g =
  (* Colours via BFS; on a conflict returns the offending edge and the BFS
     parent forest so a witness cycle can be reconstructed. *)
  let n = Ugraph.num_nodes g in
  let color = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let conflict = ref None in
  let queue = Queue.create () in
  (try
     for s = 0 to n - 1 do
       if color.(s) < 0 then begin
         color.(s) <- 0;
         Queue.clear queue;
         Queue.add s queue;
         while not (Queue.is_empty queue) do
           let u = Queue.pop queue in
           List.iter
             (fun v ->
                if color.(v) < 0 then begin
                  color.(v) <- 1 - color.(u);
                  parent.(v) <- u;
                  Queue.add v queue
                end
                else if color.(v) = color.(u) then begin
                  conflict := Some (u, v);
                  raise Exit
                end)
             (Ugraph.neighbors g u)
         done
       end
     done
   with Exit -> ());
  color, parent, !conflict

let two_color g =
  let color, _, conflict = bfs_color g in
  match conflict with None -> Some color | Some _ -> None

let is_bipartite g = two_color g <> None

let odd_cycle g =
  let _, parent, conflict = bfs_color g in
  match conflict with
  | None -> None
  | Some (u, v) ->
    (* Walk both vertices up the BFS forest to their lowest common
       ancestor; the two paths plus edge (u, v) form an odd cycle. *)
    let path_to_root x =
      let rec go x acc = if x < 0 then acc else go parent.(x) (x :: acc) in
      go x []
    in
    let pu = path_to_root u and pv = path_to_root v in
    let rec strip_common pu pv lca =
      match pu, pv with
      | a :: pu', b :: pv' when a = b -> strip_common pu' pv' a
      | _ -> pu, pv, lca
    in
    let pu, pv, lca = strip_common pu pv (-1) in
    assert (lca >= 0);
    Some ((lca :: pu) @ List.rev pv)

type residual = { color : int array; comp : int array; num_comps : int }

exception Odd_cycle

let residual g ~keep =
  let n = Ugraph.num_nodes g in
  if Array.length keep <> n then invalid_arg "Bipartite.residual: arity";
  let color = Array.make n (-1) and comp = Array.make n (-1) in
  let queue = Array.make n 0 in
  let k = ref 0 and head = ref 0 and tail = ref 0 and u = ref 0 in
  let visit v =
    if keep.(v) then
      if comp.(v) < 0 then begin
        comp.(v) <- !k;
        color.(v) <- 1 - color.(!u);
        queue.(!tail) <- v;
        incr tail
      end
      else if color.(v) = color.(!u) then raise_notrace Odd_cycle
  in
  (* Roots are taken in increasing order, so each component is entered at
     its smallest vertex; in a bipartite component the BFS colour of a
     vertex is the parity of its distance from that root. *)
  match
    for s = 0 to n - 1 do
      if keep.(s) && comp.(s) < 0 then begin
        comp.(s) <- !k;
        color.(s) <- 0;
        queue.(0) <- s;
        head := 0;
        tail := 1;
        while !head < !tail do
          u := queue.(!head);
          incr head;
          Ugraph.iter_neighbors visit g !u
        done;
        incr k
      end
    done
  with
  | () -> Some { color; comp; num_comps = !k }
  | exception Odd_cycle -> None

let components g =
  let n = Ugraph.num_nodes g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      comp.(s) <- !k;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        List.iter
          (fun v ->
             if comp.(v) < 0 then begin
               comp.(v) <- !k;
               Queue.add v queue
             end)
          (Ugraph.neighbors g u)
      done;
      incr k
    end
  done;
  comp, !k
