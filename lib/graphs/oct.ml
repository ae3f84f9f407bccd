type result = {
  transversal : int list;
  optimal : bool;
  lower_bound : int;
  elapsed : float;
}

let with_k2 g =
  let n = Ugraph.num_nodes g in
  Ugraph.build ~n:(2 * n) (fun add ->
      Ugraph.iter_edges
        (fun u v ->
           add u v;
           add (u + n) (v + n))
        g;
      for v = 0 to n - 1 do
        add v (v + n)
      done)

let is_transversal g transversal =
  Bipartite.residual g ~keep:(Ugraph.complement_set g transversal) <> None

let solve ?budget g =
  let start = Obs.Clock.now () in
  let n = Ugraph.num_nodes g in
  let vc = Vertex_cover.solve ?budget (with_k2 g) in
  let transversal = ref [] in
  for v = n - 1 downto 0 do
    if vc.cover.(v) && vc.cover.(v + n) then transversal := v :: !transversal
  done;
  (* The cover has size n + k for some k ≥ 0; the transversal is exactly
     the doubly-covered vertices. Lemma 1 guarantees bipartiteness. *)
  {
    transversal = !transversal;
    optimal = vc.optimal;
    lower_bound = max 0 (vc.lower_bound - n);
    elapsed = Obs.Clock.now () -. start;
  }

let greedy g =
  let started = Obs.Clock.now () in
  let n = Ugraph.num_nodes g in
  (* BFS colouring; a vertex that conflicts with an already-coloured
     neighbour is deferred to the transversal. Processing in decreasing
     degree order keeps high-degree troublemakers flexible. *)
  let color = Array.make n (-1) in
  let in_oct = Array.make n false in
  let start, adj = Ugraph.slices g in
  let try_color v =
    let c0 = ref false and c1 = ref false in
    for i = start.(v) to start.(v + 1) - 1 do
      let w = adj.(i) in
      if not in_oct.(w) then
        match color.(w) with
        | 0 -> c0 := true
        | 1 -> c1 := true
        | _ -> ()
    done;
    match !c0, !c1 with
    | _, false -> color.(v) <- 1; true
    | false, true -> color.(v) <- 0; true
    | true, true -> false
  in
  (* Every vertex is queued once, so the queue is one array. *)
  let queue = Array.make n 0 and head = ref 0 and tail = ref 0 in
  let visited = Array.make n false in
  let visit w =
    if not visited.(w) then begin
      visited.(w) <- true;
      queue.(!tail) <- w;
      incr tail
    end
  in
  for s = 0 to n - 1 do
    visit s;
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      if not (try_color v) then in_oct.(v) <- true;
      for i = start.(v) to start.(v + 1) - 1 do
        visit adj.(i)
      done
    done
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
    elapsed = Obs.Clock.now () -. started;
  }
