(* Tests for the domain pool: lifecycle, ordering, exception handling,
   the branch & bound heap, and the bit-identical jobs=1 vs jobs=N
   contract of every parallelised consumer. *)

let check = Alcotest.check
let tb = Alcotest.bool
let ti = Alcotest.int
let ts = Alcotest.string

exception Boom of int

let pool_tests =
  [
    Alcotest.test_case "create, jobs, shutdown" `Quick (fun () ->
        let pool = Parallel.create ~jobs:4 in
        check ti "jobs" 4 (Parallel.jobs pool);
        Parallel.shutdown pool;
        (* Idempotent. *)
        Parallel.shutdown pool;
        check tb "run after shutdown raises" true
          (match Parallel.run pool [| (fun () -> 1) |] with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "jobs < 1 rejected" `Quick (fun () ->
        check tb "raises" true
          (match Parallel.create ~jobs:0 with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "run merges in submission order" `Quick (fun () ->
        Parallel.with_pool ~jobs:4 (fun pool ->
            let results =
              Parallel.run pool (Array.init 37 (fun i () -> i * i))
            in
            check tb "ordered" true
              (results = Array.init 37 (fun i -> i * i))));
    Alcotest.test_case "empty batch" `Quick (fun () ->
        Parallel.with_pool ~jobs:4 (fun pool ->
            check ti "empty run" 0 (Array.length (Parallel.run pool [||]));
            check ti "empty map" 0
              (List.length (Parallel.map pool (fun x -> x) []))));
    Alcotest.test_case "earliest exception wins, pool survives" `Quick
      (fun () ->
         Parallel.with_pool ~jobs:4 (fun pool ->
             let tasks =
               Array.init 8 (fun i () ->
                   if i = 3 || i = 5 then raise (Boom i) else i)
             in
             check tb "earliest failure re-raised" true
               (match Parallel.run pool tasks with
                | exception Boom 3 -> true
                | exception Boom _ -> false
                | _ -> false);
             (* The pool stays usable after a failed batch. *)
             let again = Parallel.run pool (Array.init 5 (fun i () -> i + 1)) in
             check tb "usable after failure" true
               (again = [| 1; 2; 3; 4; 5 |])));
    Alcotest.test_case "map preserves order, with and without chunking"
      `Quick (fun () ->
          let xs = List.init 17 (fun i -> i) in
          let expect = List.map (fun x -> (3 * x) + 1 ) xs in
          Parallel.with_pool ~jobs:4 (fun pool ->
              check tb "chunk 1" true
                (Parallel.map pool (fun x -> (3 * x) + 1) xs = expect);
              check tb "chunk 3" true
                (Parallel.map ~chunk:3 pool (fun x -> (3 * x) + 1) xs = expect);
              check tb "chunk > length" true
                (Parallel.map ~chunk:64 pool (fun x -> (3 * x) + 1) xs = expect)));
  ]

(* --- First-acceptable racing --------------------------------------- *)

let show_outcome = function
  | Parallel.Finished v -> "F" ^ string_of_int v
  | Parallel.Cut -> "C"
  | Parallel.Failed _ -> "E"

let show_outcomes a = String.concat "," (Array.to_list (Array.map show_outcome a))

let race_at ~jobs ?groups thunks ~acceptable =
  Parallel.with_pool ~jobs (fun pool ->
      snd (Parallel.race ?groups pool thunks ~acceptable))

let race_tests =
  [
    Alcotest.test_case "first acceptable entrant wins at jobs=1 and 4"
      `Quick (fun () ->
        let thunks = Array.map (fun v _rb -> v) [| 1; 3; 4; 5 |] in
        let acceptable v = v mod 2 = 0 in
        let expect = "F1,F3,F4,C" in
        check ts "jobs=1" expect
          (show_outcomes (race_at ~jobs:1 thunks ~acceptable));
        check ts "jobs=4" expect
          (show_outcomes (race_at ~jobs:4 thunks ~acceptable)));
    Alcotest.test_case "no acceptable entrant: everything recorded" `Quick
      (fun () ->
        let thunks = Array.map (fun v _rb -> v) [| 1; 3; 5 |] in
        let acceptable _ = false in
        check ts "jobs=1" "F1,F3,F5"
          (show_outcomes (race_at ~jobs:1 thunks ~acceptable));
        check ts "jobs=4" "F1,F3,F5"
          (show_outcomes (race_at ~jobs:4 thunks ~acceptable)));
    Alcotest.test_case "jobs=1 exits early: losers never start" `Quick
      (fun () ->
        let ran = Array.make 4 false in
        let thunks =
          Array.init 4 (fun i _rb ->
              ran.(i) <- true;
              i)
        in
        let out = race_at ~jobs:1 thunks ~acceptable:(fun v -> v >= 1) in
        check ts "outcomes" "F0,F1,C,C" (show_outcomes out);
        check tb "2 skipped" true (not ran.(2) && not ran.(3)));
    Alcotest.test_case "deciding group runs completely before deciding"
      `Quick (fun () ->
        let thunks = Array.map (fun v _rb -> v) [| 2; 4; 6 |] in
        let groups = [| 0; 0; 1 |] in
        let acceptable v = v mod 2 = 0 in
        check ts "jobs=1" "F2,F4,C"
          (show_outcomes (race_at ~jobs:1 ~groups thunks ~acceptable));
        check ts "jobs=4" "F2,F4,C"
          (show_outcomes (race_at ~jobs:4 ~groups thunks ~acceptable)));
    Alcotest.test_case "winner is the preferred member of the deciding group"
      `Quick (fun () ->
        (* Group 0 holds 5, 3, 8 (8 unacceptable) and a tie at 3; the
           preference ranks the smallest first and the tie goes to the
           lower index. Group 1 is never reached. *)
        let thunks = Array.map (fun v _rb -> v) [| 5; 3; 8; 3; 1 |] in
        let groups = [| 0; 0; 0; 0; 1 |] in
        let acceptable v = v < 8 in
        List.iter
          (fun jobs ->
             let winner, out =
               Parallel.with_pool ~jobs (fun pool ->
                   Parallel.race ~groups ~prefer:compare pool thunks
                     ~acceptable)
             in
             let label = Printf.sprintf "jobs=%d" jobs in
             check ts label "F5,F3,F8,F3,C" (show_outcomes out);
             check (Alcotest.option ti) (label ^ " winner") (Some 1) winner;
             check (Alcotest.option ti) (label ^ " no preference") (Some 0)
               (fst
                  (Parallel.with_pool ~jobs (fun pool ->
                       Parallel.race ~groups pool thunks ~acceptable))))
          [ 1; 4 ];
        check (Alcotest.option ti) "undecided race" None
          (fst
             (Parallel.with_pool ~jobs:4 (fun pool ->
                  Parallel.race pool thunks ~acceptable:(fun _ -> false)))));
    Alcotest.test_case "failed entrant lands as Failed, race unharmed"
      `Quick (fun () ->
        let thunks =
          [| (fun _rb -> raise (Boom 0)); (fun _rb -> 2); (fun _rb -> 3) |]
        in
        let acceptable v = v = 2 in
        let groups = [| 0; 0; 1 |] in
        check ts "jobs=1" "E,F2,C"
          (show_outcomes (race_at ~jobs:1 ~groups thunks ~acceptable));
        Parallel.with_pool ~jobs:4 (fun pool ->
            check ts "jobs=4" "E,F2,C"
              (show_outcomes
                 (snd (Parallel.race ~groups pool thunks ~acceptable)));
            (* the pool survives a failing entrant *)
            check tb "usable after race" true
              (Parallel.run pool (Array.init 5 (fun i () -> i))
               = [| 0; 1; 2; 3; 4 |])));
    Alcotest.test_case "winner's cancel latch releases a spinning loser"
      `Quick (fun () ->
        (* The loser spins until the race budget trips — only the
           winner's latch can end it, so termination proves the cancel
           protocol (the test would hang otherwise). *)
        let thunks =
          [|
            (fun _rb -> 1);
            (fun rb ->
               while Resilience.Budget.state rb = None do
                 Domain.cpu_relax ()
               done;
               99);
          |]
        in
        let out = race_at ~jobs:4 thunks ~acceptable:(fun v -> v = 1) in
        check ts "loser cut" "F1,C" (show_outcomes out));
    Alcotest.test_case "bad groups rejected" `Quick (fun () ->
        Parallel.with_pool ~jobs:2 (fun pool ->
            let thunks = Array.map (fun v _rb -> v) [| 1; 2 |] in
            check tb "length mismatch" true
              (match
                 Parallel.race ~groups:[| 0 |] pool thunks
                   ~acceptable:(fun _ -> true)
               with
               | exception Invalid_argument _ -> true
               | _ -> false);
            check tb "decreasing" true
              (match
                 Parallel.race ~groups:[| 1; 0 |] pool thunks
                   ~acceptable:(fun _ -> true)
               with
               | exception Invalid_argument _ -> true
               | _ -> false)));
  ]

let heap_tests =
  [
    Alcotest.test_case "push/pop yields keys in order" `Quick (fun () ->
        let h = Milp.Branch_bound.Heap.create () in
        check tb "empty" true (Milp.Branch_bound.Heap.is_empty h);
        let keys = [ 5.; 1.; 4.; 1.; 3.; 9.; 2.; 6. ] in
        List.iter (fun k -> Milp.Branch_bound.Heap.push h k k) keys;
        check ti "length" (List.length keys) (Milp.Branch_bound.Heap.length h);
        check (Alcotest.float 0.) "peek is min" 1.
          (Milp.Branch_bound.Heap.peek_key h);
        let popped =
          List.map
            (fun _ -> Milp.Branch_bound.Heap.pop h)
            keys
        in
        check tb "sorted" true (popped = List.sort compare keys);
        check tb "drained" true (Milp.Branch_bound.Heap.is_empty h);
        check tb "pop on empty raises" true
          (match Milp.Branch_bound.Heap.pop h with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "growth past the initial 64 slots" `Quick (fun () ->
        let h = Milp.Branch_bound.Heap.create () in
        let n = 200 in
        (* A deliberately shuffled key sequence. *)
        for i = 0 to n - 1 do
          let k = float_of_int (i * 37 mod 101) +. (float_of_int i /. 1000.) in
          Milp.Branch_bound.Heap.push h k (i, k)
        done;
        check ti "length" n (Milp.Branch_bound.Heap.length h);
        let prev = ref neg_infinity in
        for _ = 1 to n do
          let _, k = Milp.Branch_bound.Heap.pop h in
          check tb "nondecreasing" true (k >= !prev);
          prev := k
        done;
        check tb "drained" true (Milp.Branch_bound.Heap.is_empty h));
  ]

(* --- Determinism across jobs counts -------------------------------- *)

(* Fig 2 crossbar for f = (a & b) | c (same fixture as test_variation). *)
let fig2_design () =
  Crossbar.Design.build ~rows:3 ~cols:2 ~input:(Crossbar.Design.Row 2)
    ~outputs:[ "f", Crossbar.Design.Row 0 ]
    (fun set ->
       set ~row:0 ~col:0 (Crossbar.Literal.Neg "a");
       set ~row:0 ~col:1 (Crossbar.Literal.Pos "a");
       set ~row:1 ~col:0 (Crossbar.Literal.Neg "b");
       set ~row:1 ~col:1 Crossbar.Literal.On;
       set ~row:2 ~col:0 (Crossbar.Literal.Pos "c");
       set ~row:2 ~col:1 (Crossbar.Literal.Pos "b"))

let fig2_inputs = [ "a"; "b"; "c" ]
let fig2_reference point = [| (point.(0) && point.(1)) || point.(2) |]

let harden_example () =
  Logic.Netlist.create ~name:"harden_ex" ~inputs:[ "a"; "b"; "c"; "d" ]
    ~outputs:[ "f"; "g" ]
    [ Logic.Netlist.n_expr "f" (Logic.Parse.expr "(a & b) | (c & d)");
      Logic.Netlist.n_expr "g" (Logic.Parse.expr "(a | c) & (b | d)") ]

let harden_spec =
  Crossbar.Variation.with_wire ~row:25. ~col:25. Crossbar.Variation.default_spec

let determinism_tests =
  [
    Alcotest.test_case "monte carlo JSON is jobs-independent" `Quick
      (fun () ->
         let run jobs =
           Crossbar.Margin.monte_carlo ~seed:3 ~max_trials:40 ~min_trials:40
             ~jobs ~spec:Crossbar.Variation.default_spec (fig2_design ())
             ~inputs:fig2_inputs ~reference:fig2_reference ~outputs:[ "f" ]
         in
         check ts "jobs=1 vs jobs=4"
           (Crossbar.Margin.json_of_mc (run 1))
           (Crossbar.Margin.json_of_mc (run 4));
         check ts "jobs=1 vs jobs=3"
           (Crossbar.Margin.json_of_mc (run 1))
           (Crossbar.Margin.json_of_mc (run 3)));
    Alcotest.test_case "early stopping is jobs-independent" `Quick (fun () ->
        (* The stop decision is chunk-granular for every jobs count, so
           the trial count and the JSON agree even when the sampler
           stops well before max_trials. *)
        let run jobs =
          Crossbar.Margin.monte_carlo ~max_trials:500 ~min_trials:16
            ~ci_halfwidth:0.2 ~jobs ~spec:Crossbar.Variation.nominal
            (fig2_design ()) ~inputs:fig2_inputs ~reference:fig2_reference
            ~outputs:[ "f" ]
        in
        let a = run 1 and b = run 4 in
        check tb "stopped early" true a.mc_stopped_early;
        check ti "same trial count" a.mc_trials b.mc_trials;
        check ts "same json"
          (Crossbar.Margin.json_of_mc a) (Crossbar.Margin.json_of_mc b));
    Alcotest.test_case "harden ranking is jobs-independent" `Quick (fun () ->
        let run jobs =
          let hopts =
            { Compact.Pipeline.default_harden_options with
              spec = harden_spec;
              mc_trials = 16;
              jobs }
          in
          Compact.Pipeline.harden ~hopts (harden_example ())
        in
        let a = run 1 and b = run 4 in
        check ts "same choice" a.chosen.cand_label b.chosen.cand_label;
        check (Alcotest.float 0.) "same margin" a.chosen.cand_worst
          b.chosen.cand_worst;
        check tb "same ranking" true
          (List.map
             (fun (c : Compact.Pipeline.candidate) ->
                c.cand_label, c.cand_worst)
             a.candidates
           = List.map
               (fun (c : Compact.Pipeline.candidate) ->
                  c.cand_label, c.cand_worst)
               b.candidates);
        match a.mc, b.mc with
        | Some ma, Some mb ->
          check ts "same mc json"
            (Crossbar.Margin.json_of_mc ma) (Crossbar.Margin.json_of_mc mb)
        | _ -> Alcotest.fail "mc expected");
  ]

let () =
  Alcotest.run "parallel"
    [
      "pool", pool_tests;
      "race", race_tests;
      "heap", heap_tests;
      "determinism", determinism_tests;
    ]
