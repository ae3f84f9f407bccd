type result = {
  transversal : int list;
  coloring : int array;
  optimal : bool;
  lower_bound : int;
  elapsed : float;
}

let color_residual g transversal =
  let keep = Ugraph.complement_set g transversal in
  Option.map
    (fun (r : Bipartite.residual) -> r.color)
    (Bipartite.residual g ~keep)

let is_transversal g transversal = color_residual g transversal <> None

let finish g transversal ~optimal ~lower_bound ~elapsed =
  match color_residual g transversal with
  | None -> invalid_arg "Oct: internal error, residual not bipartite"
  | Some coloring -> { transversal; coloring; optimal; lower_bound; elapsed }

let solve ?budget g =
  let start = Obs.Clock.now () in
  let n = Ugraph.num_nodes g in
  let p = Product.with_k2 g in
  let vc = Vertex_cover.solve ?budget p in
  let transversal = ref [] in
  for v = n - 1 downto 0 do
    if vc.cover.(v) && vc.cover.(v + n) then transversal := v :: !transversal
  done;
  (* The cover has size n + k for some k ≥ 0; the transversal is exactly
     the doubly-covered vertices. Lemma 1 guarantees bipartiteness. *)
  let lower_bound = max 0 (vc.lower_bound - n) in
  finish g !transversal ~optimal:vc.optimal ~lower_bound
    ~elapsed:(Obs.Clock.now () -. start)

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
  let optimal = !transversal = [] in
  finish g !transversal ~optimal ~lower_bound:0
    ~elapsed:(Obs.Clock.now () -. start)
