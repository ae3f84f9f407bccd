type output_margin = {
  om_output : string;
  om_margin : float;
  om_voltage : float;
  om_expected : bool;
  om_assignment : (string * bool) list;
}

type analysis = {
  per_output : output_margin list;
  worst : float;
  checked : int;
  exhaustive : bool;
  max_iterations : int;
  max_residual : float;
  max_condition : float;
  fallbacks : int;
  unconverged : int;
}

let exhaustive_threshold = 8

exception Early_exit

(* Everything about a margin analysis that is invariant across
   evaluations: the index maps, the design outputs resolved against the
   reference output order, and the derived threshold voltage. Built once
   per design and shared — strictly read-only after construction, so
   concurrent analyses on pool domains may share one [ctx]. All
   per-evaluation state (the assignment buffer, per-output minima,
   solver statistics) lives inside [analyze_ctx]. *)
type ctx = {
  cx_design : Design.t;
  cx_params : Analog.params;
  cx_opts : Analog.solver_opts option;
  cx_inputs : string list;
  cx_n : int;
  cx_in_index : (string, int) Hashtbl.t;
  cx_outputs : (string * Design.wire * int) array;
      (* design outputs with their index into the reference vector *)
  cx_reference : bool array -> bool array;
  cx_v_th : float;
}

let make_ctx ?(params = Analog.default_params) ?opts d ~inputs ~reference
    ~outputs =
  let in_index = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace in_index v i) inputs;
  let out_index = Hashtbl.create 16 in
  List.iteri (fun i o -> Hashtbl.replace out_index o i) outputs;
  let resolved =
    Design.outputs d
    |> List.map (fun (o, w) ->
        match Hashtbl.find_opt out_index o with
        | Some i -> o, w, i
        | None -> invalid_arg (Printf.sprintf "Margin: unknown output %s" o))
    |> Array.of_list
  in
  {
    cx_design = d;
    cx_params = params;
    cx_opts = opts;
    cx_inputs = inputs;
    cx_n = List.length inputs;
    cx_in_index = in_index;
    cx_outputs = resolved;
    cx_reference = reference;
    cx_v_th = params.Analog.threshold *. params.Analog.v_in;
  }

let analyze_ctx ?deviations ?(seed = Rng.default_seed) ?(trials = 32)
    ?stop_below cx =
  let n = cx.cx_n in
  let params = cx.cx_params in
  let point = Array.make n false in
  let env v =
    match Hashtbl.find_opt cx.cx_in_index v with
    | Some i -> point.(i)
    | None ->
      invalid_arg
        (Printf.sprintf "Margin: design variable %s not a reference input" v)
  in
  let best = Array.make (Array.length cx.cx_outputs) None in
  let worst = ref infinity in
  let checked = ref 0 in
  let max_iterations = ref 0 in
  let max_residual = ref 0. in
  let max_condition = ref 0. in
  let fallbacks = ref 0 in
  let unconverged = ref 0 in
  let v_th = cx.cx_v_th in
  let run_point () =
    incr checked;
    let expected = cx.cx_reference point in
    let sol = Analog.solve ~params ?deviations ?opts:cx.cx_opts cx.cx_design env in
    if sol.Analog.iterations > !max_iterations then
      max_iterations := sol.Analog.iterations;
    if sol.Analog.residual > !max_residual then
      max_residual := sol.Analog.residual;
    if sol.Analog.condition > !max_condition then
      max_condition := sol.Analog.condition;
    (match sol.Analog.solve_method with
     | Analog.Cg -> ()
     | Analog.Dense | Analog.Cg_then_dense -> incr fallbacks);
    let converged = sol.Analog.residual <= Analog.read_tol in
    if not converged then incr unconverged;
    Array.iteri
      (fun idx (o, w, e_idx) ->
         let e = expected.(e_idx) in
         let v =
           match w with
           | Design.Row i -> sol.Analog.v_rows.(i)
           | Design.Col j -> sol.Analog.v_cols.(j)
         in
         let m =
           (* An unconverged solve has meaningless voltages: pin the
              margin to a full-swing failure instead of aborting. *)
           if not converged then -1.
           else if e then (v -. v_th) /. params.Analog.v_in
           else (v_th -. v) /. params.Analog.v_in
         in
         (match best.(idx) with
          | Some om when om.om_margin <= m -> ()
          | _ ->
            best.(idx) <-
              Some
                {
                  om_output = o;
                  om_margin = m;
                  om_voltage = v;
                  om_expected = e;
                  om_assignment =
                    List.mapi (fun i var -> var, point.(i)) cx.cx_inputs;
                });
         if m < !worst then worst := m)
      cx.cx_outputs;
    match stop_below with
    | Some bound when !worst < bound -> raise Early_exit
    | _ -> ()
  in
  let exhaustive = n <= exhaustive_threshold in
  (try
     if exhaustive then
       for row = 0 to (1 lsl n) - 1 do
         for i = 0 to n - 1 do
           point.(i) <- row land (1 lsl i) <> 0
         done;
         run_point ()
       done
     else begin
       let rng = Rng.state seed `Margin_points in
       for _ = 1 to trials do
         for i = 0 to n - 1 do
           point.(i) <- Random.State.bool rng
         done;
         run_point ()
       done
     end
   with Early_exit -> ());
  {
    per_output =
      Array.to_list best
      |> List.filteri (fun _ om -> om <> None)
      |> List.map Option.get;
    worst = (if !checked = 0 then nan else !worst);
    checked = !checked;
    exhaustive;
    max_iterations = !max_iterations;
    max_residual = !max_residual;
    max_condition = !max_condition;
    fallbacks = !fallbacks;
    unconverged = !unconverged;
  }

let analyze ?params ?deviations ?opts ?seed ?trials ?stop_below d ~inputs
    ~reference ~outputs =
  let cx = make_ctx ?params ?opts d ~inputs ~reference ~outputs in
  analyze_ctx ?deviations ?seed ?trials ?stop_below cx

let corners ?params ?opts ?seed ?trials ~spec d ~inputs ~reference ~outputs =
  let rows = Design.rows d and cols = Design.cols d in
  let cx = make_ctx ?params ?opts d ~inputs ~reference ~outputs in
  List.map
    (fun c ->
       let deviations = Variation.corner spec c ~rows ~cols in
       ( c,
         Obs.Span.with_ ~attrs:[ "corner", Variation.corner_name c ] "corner"
           (fun () -> analyze_ctx ~deviations ?seed ?trials cx) ))
    Variation.all_corners

let worst_over_corners cs =
  List.fold_left (fun acc (_, a) -> min acc a.worst) infinity cs

(* ------------------------------------------------------------------ *)

type mc = {
  mc_seed : int;
  mc_trials : int;
  mc_passes : int;
  mc_yield : float;
  mc_low : float;
  mc_high : float;
  mc_margin_spec : float;
  mc_mean_worst : float;
  mc_min_worst : float;
  mc_stopped_early : bool;
}

let wilson ~passes ~trials =
  if trials = 0 then 0., 1.
  else begin
    let z = 1.96 in
    let n = float_of_int trials in
    let p = float_of_int passes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let centre = (p +. (z2 /. (2. *. n))) /. denom in
    let hw =
      z /. denom
      *. sqrt (((p *. (1. -. p)) /. n) +. (z2 /. (4. *. n *. n)))
    in
    max 0. (centre -. hw), min 1. (centre +. hw)
  end

let mc_chunk = 8
let c_mc_trials = Obs.Counter.make "mc.trials"
let c_mc_early_stops = Obs.Counter.make "mc.early_stops"

let monte_carlo ?params ?opts ?(seed = Rng.default_seed) ?(max_trials = 200)
    ?(min_trials = 24) ?(ci_halfwidth = 0.04) ?(margin_spec = 0.)
    ?(checks_per_trial = 24) ?(jobs = Parallel.default_jobs ()) ~spec d
    ~inputs ~reference ~outputs =
  Obs.Span.with_ ~attrs:[ "max_trials", string_of_int max_trials ] "monte-carlo"
  @@ fun () ->
  let rows = Design.rows d and cols = Design.cols d in
  let cx = make_ctx ?params ?opts d ~inputs ~reference ~outputs in
  (* Trial [k] is a pure function of [(seed, k)]: the variation sample
     and the assignment sample both derive from the trial index exactly
     as in the sequential sampler, so trial results are independent of
     how trials are scheduled onto domains. *)
  let run_trial k =
    let deviations =
      Variation.sample ~seed:(Rng.derive seed (`Mc_sample, k)) spec ~rows ~cols
    in
    let a =
      analyze_ctx ~deviations
        ~seed:(Rng.derive seed (`Mc_checks, k))
        ~trials:checks_per_trial cx
    in
    a.worst
  in
  let passes = ref 0 in
  let trials = ref 0 in
  let sum_worst = ref 0. in
  let min_worst = ref infinity in
  let stopped_early = ref false in
  let stop = ref false in
  (* Trials run in fixed chunks of [mc_chunk]; the Wilson CI early-stop
     test happens only at chunk boundaries. The chunk size never depends
     on [jobs], and a wave's chunks merge in trial order with any chunk
     past a stop discarded wholesale, so the accumulated counters — and
     therefore the JSON — are identical for every jobs count. *)
  Parallel.with_pool ~jobs (fun pool ->
      let next = ref 1 in
      while (not !stop) && !next <= max_trials do
        let wave = Parallel.jobs pool in
        let chunks = ref [] in
        for c = wave - 1 downto 0 do
          let lo = !next + (c * mc_chunk) in
          if lo <= max_trials then
            chunks := (lo, min max_trials (lo + mc_chunk - 1)) :: !chunks
        done;
        let chunks = Array.of_list !chunks in
        let results =
          Parallel.run pool
            (Array.map
               (fun (lo, hi) () ->
                  Obs.Span.with_
                    ~attrs:[ "trials", Printf.sprintf "%d-%d" lo hi ]
                    "mc-chunk"
                    (fun () ->
                      Array.init (hi - lo + 1) (fun i -> run_trial (lo + i))))
               chunks)
        in
        Array.iter
          (fun worsts ->
             if not !stop then begin
               Array.iter
                 (fun w ->
                    incr trials;
                    sum_worst := !sum_worst +. w;
                    if w < !min_worst then min_worst := w;
                    if w >= margin_spec then incr passes)
                 worsts;
               if !trials >= min_trials && !trials < max_trials then begin
                 let low, high = wilson ~passes:!passes ~trials:!trials in
                 if (high -. low) /. 2. <= ci_halfwidth then begin
                   stopped_early := true;
                   stop := true
                 end
               end
             end)
          results;
        next := !next + (wave * mc_chunk)
      done);
  Obs.Counter.add c_mc_trials !trials;
  if !stopped_early then Obs.Counter.incr c_mc_early_stops;
  Obs.Span.add_attr "trials" (string_of_int !trials);
  Obs.Span.add_attr "passes" (string_of_int !passes);
  let low, high = wilson ~passes:!passes ~trials:!trials in
  {
    mc_seed = seed;
    mc_trials = !trials;
    mc_passes = !passes;
    mc_yield = float_of_int !passes /. float_of_int (max 1 !trials);
    mc_low = low;
    mc_high = high;
    mc_margin_spec = margin_spec;
    mc_mean_worst = !sum_worst /. float_of_int (max 1 !trials);
    mc_min_worst = (if !trials = 0 then nan else !min_worst);
    mc_stopped_early = !stopped_early;
  }

(* ------------------------------------------------------------------ *)
(* Stable JSON: %.17g floats round-trip exactly, so equal inputs give
   bit-identical strings — the determinism contract the tests pin. *)

let jf v = Printf.sprintf "%.17g" v
let jb b = if b then "true" else "false"
let js s = Obs.Json.to_string (Obs.Json.Str s)

let json_of_analysis a =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"worst\":%s,\"checked\":%d,\"exhaustive\":%s,\"fallbacks\":%d,\
        \"unconverged\":%d,\"max_iterations\":%d,\"max_residual\":%s,\
        \"max_condition\":%s,\"outputs\":["
       (jf a.worst) a.checked (jb a.exhaustive) a.fallbacks a.unconverged
       a.max_iterations (jf a.max_residual) (jf a.max_condition));
  List.iteri
    (fun i om ->
       if i > 0 then Buffer.add_char buf ',';
       Buffer.add_string buf
         (Printf.sprintf
            "{\"name\":%s,\"margin\":%s,\"voltage\":%s,\"expected\":%s}"
            (js om.om_output) (jf om.om_margin) (jf om.om_voltage)
            (jb om.om_expected)))
    a.per_output;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let json_of_mc m =
  Printf.sprintf
    "{\"seed\":%d,\"trials\":%d,\"passes\":%d,\"yield\":%s,\"wilson\":[%s,%s],\
     \"margin_spec\":%s,\"mean_worst_margin\":%s,\"min_worst_margin\":%s,\
     \"stopped_early\":%s}"
    m.mc_seed m.mc_trials m.mc_passes (jf m.mc_yield) (jf m.mc_low)
    (jf m.mc_high) (jf m.mc_margin_spec) (jf m.mc_mean_worst)
    (jf m.mc_min_worst) (jb m.mc_stopped_early)

let pp_analysis ppf a =
  Format.fprintf ppf "@[<v>worst margin %.4f over %d assignment%s%s" a.worst
    a.checked
    (if a.checked = 1 then "" else "s")
    (if a.exhaustive then " (exhaustive)" else "");
  if a.fallbacks > 0 || a.unconverged > 0 then
    Format.fprintf ppf "; solver: %d dense fallback%s, %d unconverged"
      a.fallbacks
      (if a.fallbacks = 1 then "" else "s")
      a.unconverged;
  List.iter
    (fun om ->
       Format.fprintf ppf "@,  %-16s margin %+.4f (v=%.4f, expect %d)"
         om.om_output om.om_margin om.om_voltage
         (if om.om_expected then 1 else 0))
    a.per_output;
  Format.fprintf ppf "@]"

let pp_mc ppf m =
  Format.fprintf ppf
    "yield %.1f%% [%.1f%%, %.1f%%] at margin spec %.3f (%d/%d trials%s; \
     worst margin mean %.4f, min %.4f)"
    (100. *. m.mc_yield) (100. *. m.mc_low) (100. *. m.mc_high)
    m.mc_margin_spec m.mc_passes m.mc_trials
    (if m.mc_stopped_early then ", stopped early" else "")
    m.mc_mean_worst m.mc_min_worst
