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

(* A packed cycle closes within [2 * packing_depth + 1] vertices. *)
let packing_depth = 8

let odd_cycle_packing g =
  let n = Ugraph.num_nodes g in
  let start, adj = Ugraph.slices g in
  let packed = Array.make n false in
  (* One BFS's marks, stamped with its start vertex so that no array is
     cleared between searches. *)
  let seen = Array.make n (-1) in
  let layer = Array.make n 0 in
  let parent = Array.make n (-1) in
  let queue = Array.make n 0 in
  (* The cycle closed by the edge (u, w) of one layer: u up to the
     nearest common ancestor and down to w. *)
  let close u w =
    let rec climb a b left right =
      if a = b then List.rev_append left (a :: right)
      else climb parent.(a) parent.(b) (a :: left) (b :: right)
    in
    climb u w [] []
  in
  let cycles = ref [] in
  (* A bipartite graph closes no cycle, and its BFS balls are as large
     as any (0.5 ms on dec). *)
  if not (Bipartite.is_bipartite g) then
    for s = 0 to n - 1 do
      if not packed.(s) then begin
        seen.(s) <- s;
        layer.(s) <- 0;
        queue.(0) <- s;
        let head = ref 0 and tail = ref 1 and found = ref None in
        while !found = None && !head < !tail do
          let v = queue.(!head) in
          incr head;
          let i = ref start.(v) in
          while !found = None && !i < start.(v + 1) do
            let w = adj.(!i) in
            if not packed.(w) then
              if seen.(w) <> s then begin
                if layer.(v) < packing_depth then begin
                  seen.(w) <- s;
                  layer.(w) <- layer.(v) + 1;
                  parent.(w) <- v;
                  queue.(!tail) <- w;
                  incr tail
                end
              end
              else if layer.(w) = layer.(v) then found := Some (v, w);
            incr i
          done
        done;
        match !found with
        | Some (u, w) ->
          let cycle = close u w in
          List.iter (fun v -> packed.(v) <- true) cycle;
          cycles := cycle :: !cycles
        | None -> ()
      end
    done;
  List.rev !cycles

(* The packing's BFS balls grow with the graph: it takes 0.3-0.5 s on
   the 20,000-node c499, c1355 and c1908, which no flow covers exactly. *)
let packing_node_limit = 3000

let c_packing = Obs.Counter.make "oct.packing"

let solve ?budget g =
  let start = Obs.Clock.now () in
  let n = Ugraph.num_nodes g in
  (* Every packed cycle needs its own transversal vertex: the cover of
     G□K2 has at least n + |packing| vertices. *)
  let packing =
    if n <= packing_node_limit then List.length (odd_cycle_packing g) else 0
  in
  Obs.Counter.add c_packing packing;
  let vc =
    Vertex_cover.solve ?budget ~lower_bound:(n + packing) (with_k2 g)
  in
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
