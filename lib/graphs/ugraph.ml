(* Compressed adjacency: vertex v's neighbours are
   adj.(start.(v)) .. adj.(start.(v + 1) - 1), in insertion order. *)
type t = { n : int; m : int; start : int array; adj : int array }

let check_range n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Ugraph: vertex %d out of range [0,%d)" v n)

let build ~n edges =
  if n < 0 then invalid_arg "Ugraph.build: negative size";
  (* Buffer the non-loop edges as endpoint pairs (room for 2n edges, a
     BDD graph's usual count, before the first doubling), counting each
     vertex's half-edges one slot to its right so that a prefix sum
     gives [start]. *)
  let ends = ref (Array.make ((4 * n) + 16) 0) and len = ref 0 in
  let start = Array.make (n + 1) 0 in
  edges (fun u v ->
      check_range n u;
      check_range n v;
      if u <> v then begin
        if !len + 2 > Array.length !ends then begin
          let bigger = Array.make (2 * Array.length !ends) 0 in
          Array.blit !ends 0 bigger 0 !len;
          ends := bigger
        end;
        !ends.(!len) <- u;
        !ends.(!len + 1) <- v;
        len := !len + 2;
        start.(u + 1) <- start.(u + 1) + 1;
        start.(v + 1) <- start.(v + 1) + 1
      end);
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  (* Append each edge to both endpoints' lists, with [start.(v)] as v's
     cursor; it ends at v's list end, and the shift restores it. *)
  let ends = !ends and adj = Array.make !len 0 in
  let half u v =
    adj.(start.(u)) <- v;
    start.(u) <- start.(u) + 1
  in
  for i = 0 to (!len / 2) - 1 do
    half ends.(2 * i) ends.((2 * i) + 1);
    half ends.((2 * i) + 1) ends.(2 * i)
  done;
  for v = n downto 1 do
    start.(v) <- start.(v - 1)
  done;
  start.(0) <- 0;
  (* Drop repeated neighbours, keeping each one's first occurrence, and
     compact the lists in place. *)
  let stamp = Array.make n (-1) and kept = ref 0 in
  for u = 0 to n - 1 do
    let first = start.(u) and last = start.(u + 1) - 1 in
    start.(u) <- !kept;
    for i = first to last do
      let v = adj.(i) in
      if stamp.(v) <> u then begin
        stamp.(v) <- u;
        adj.(!kept) <- v;
        incr kept
      end
    done
  done;
  start.(n) <- !kept;
  { n; m = !kept / 2; start; adj }

let of_edges ~n es = build ~n (fun add -> List.iter (fun (u, v) -> add u v) es)

let num_nodes g = g.n
let num_edges g = g.m
let check g v = check_range g.n v

let degree g v =
  check g v;
  g.start.(v + 1) - g.start.(v)

let has_edge g u v =
  check g u;
  check g v;
  let found = ref false in
  for i = g.start.(u) to g.start.(u + 1) - 1 do
    if g.adj.(i) = v then found := true
  done;
  !found

let slices g = g.start, g.adj

let iter_neighbors f g v =
  check g v;
  for i = g.start.(v + 1) - 1 downto g.start.(v) do
    f g.adj.(i)
  done

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.start.(u + 1) - 1 downto g.start.(u) do
      let v = g.adj.(i) in
      if u < v then f u v
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let complement_set g vs =
  let keep = Array.make g.n true in
  List.iter (fun v -> check g v; keep.(v) <- false) vs;
  keep
