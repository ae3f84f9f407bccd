type t = {
  n : int;
  mutable m : int;
  adj : int list array;  (* reverse insertion order; reversed on read *)
  seen : (int, unit) Hashtbl.t;  (* edge keys: min * n + max *)
}

let create n =
  if n < 0 then invalid_arg "Ugraph.create: negative size";
  { n; m = 0; adj = Array.make (max n 1) []; seen = Hashtbl.create (4 * n + 16) }

let num_nodes g = g.n
let num_edges g = g.m

let key g u v = if u < v then (u * g.n) + v else (v * g.n) + u

let check g v =
  if v < 0 || v >= g.n then
    invalid_arg (Printf.sprintf "Ugraph: vertex %d out of range [0,%d)" v g.n)

let has_edge g u v =
  check g u;
  check g v;
  u <> v && Hashtbl.mem g.seen (key g u v)

let add_edge g u v =
  check g u;
  check g v;
  if u <> v && not (Hashtbl.mem g.seen (key g u v)) then begin
    Hashtbl.replace g.seen (key g u v) ();
    g.adj.(u) <- v :: g.adj.(u);
    g.adj.(v) <- u :: g.adj.(v);
    g.m <- g.m + 1
  end

let of_edges ~n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let degree g v =
  check g v;
  List.length g.adj.(v)

let neighbors g v =
  check g v;
  List.rev g.adj.(v)

let iter_neighbors f g v =
  check g v;
  List.iter f g.adj.(v)

let iter_edges f g =
  for u = 0 to g.n - 1 do
    List.iter (fun v -> if u < v then f u v) g.adj.(u)
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let edges g = List.rev (fold_edges (fun u v acc -> (u, v) :: acc) g [])

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (List.length g.adj.(v))
  done;
  !best

let copy g =
  {
    n = g.n;
    m = g.m;
    adj = Array.copy g.adj;
    seen = Hashtbl.copy g.seen;
  }

let induced g ~keep =
  if Array.length keep <> g.n then invalid_arg "Ugraph.induced: arity";
  let map = Array.make g.n (-1) in
  let next = ref 0 in
  for v = 0 to g.n - 1 do
    if keep.(v) then begin
      map.(v) <- !next;
      incr next
    end
  done;
  let sub = create !next in
  iter_edges
    (fun u v -> if keep.(u) && keep.(v) then add_edge sub map.(u) map.(v))
    g;
  sub, map

let complement_set g vs =
  let keep = Array.make g.n true in
  List.iter (fun v -> check g v; keep.(v) <- false) vs;
  keep

let pp ppf g =
  Format.fprintf ppf "graph(%d nodes, %d edges)" g.n g.m
