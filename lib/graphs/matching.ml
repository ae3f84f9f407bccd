let inf = max_int

let hopcroft_karp g ~left =
  let n = Ugraph.num_nodes g in
  if Array.length left <> n then invalid_arg "Matching.hopcroft_karp: arity";
  Ugraph.iter_edges
    (fun u v ->
       if left.(u) = left.(v) then
         invalid_arg "Matching.hopcroft_karp: edge within one side")
    g;
  let mate = Array.make n (-1) in
  let dist = Array.make n inf in
  let queue = Queue.create () in
  (* BFS layering over left vertices; returns true if an augmenting path
     exists. *)
  let bfs () =
    Queue.clear queue;
    let found = ref false in
    for u = 0 to n - 1 do
      if left.(u) then
        if mate.(u) < 0 then begin
          dist.(u) <- 0;
          Queue.add u queue
        end
        else dist.(u) <- inf
    done;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
           let w = mate.(v) in
           if w < 0 then found := true
           else if dist.(w) = inf then begin
             dist.(w) <- dist.(u) + 1;
             Queue.add w queue
           end)
        (Ugraph.neighbors g u)
    done;
    !found
  in
  let rec dfs u =
    let rec try_neighbors = function
      | [] ->
        dist.(u) <- inf;
        false
      | v :: rest ->
        let w = mate.(v) in
        if (w < 0 || (dist.(w) = dist.(u) + 1 && dfs w)) then begin
          mate.(u) <- v;
          mate.(v) <- u;
          true
        end
        else try_neighbors rest
    in
    try_neighbors (Ugraph.neighbors g u)
  in
  while bfs () do
    for u = 0 to n - 1 do
      if left.(u) && mate.(u) < 0 then ignore (dfs u)
    done
  done;
  mate

let matching_size mate =
  let c = ref 0 in
  Array.iteri (fun v m -> if m > v then incr c) mate;
  !c

let perfect_bipartite ~left ~right ~compatible =
  if left < 0 || right < 0 then
    invalid_arg "Matching.perfect_bipartite: negative side";
  if left > right then None
  else begin
    let n = left + right in
    let g =
      Ugraph.build ~n (fun add ->
          for i = 0 to left - 1 do
            for k = 0 to right - 1 do
              if compatible i k then add i (left + k)
            done
          done)
    in
    let side = Array.init n (fun v -> v < left) in
    let mate = hopcroft_karp g ~left:side in
    if matching_size mate < left then None
    else Some (Array.init left (fun i -> mate.(i) - left))
  end

let greedy_maximal g =
  let n = Ugraph.num_nodes g in
  let used = Array.make n false in
  Ugraph.fold_edges
    (fun u v acc ->
       if used.(u) || used.(v) then acc
       else begin
         used.(u) <- true;
         used.(v) <- true;
         (u, v) :: acc
       end)
    g []
