(* sdtbench: the repository's end-to-end benchmark.

   One workload in this process:
     sdtbench.exe --workload NAME --seed N --seconds S --trace 0|1
   prints one "workload metric value unit" line per metric and, as its
   last line, one JSON object {correct, attempted, failed, metrics}:
   the end-to-end metrics untraced, the per-layer metrics traced.

   Every workload, each in a child process:
     sdtbench.exe --all [--seed N] [--trace 1] [--json FILE] [--check]
   and the noise study, the full set N times in fresh processes:
     sdtbench.exe --repeat N

   Set-up (building the guest programs and their references) runs five
   times and reports its median; the timed phase then repeats the
   workload's round of operations for --seconds and keeps each
   operation's fastest execution. See README.md for the metric
   dictionary. *)

module Jsonw = Sdt_observe.Jsonw
module Telemetry = Sdt_par.Telemetry
module Meta = Sdt_harness.Meta
module W = Workload
module M = Measure

type options = {
  mutable workload : string option;
  mutable all : bool;
  mutable repeat : int;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_dir : string;
  mutable scale : W.scale;
  mutable mode : M.mode;
  mutable check : bool;
  mutable json : string option;
  mutable expect : string option;
  mutable grid_ref : string;
  mutable update_grid_ref : bool;
}

let mode_name = function
  | `Step -> "step"
  | `Block -> "block"
  | `Block_nochain -> "block-nochain"
  | `Trace -> "trace"

let scale_name = function W.Full -> "full" | W.Smoke -> "smoke"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("sdtbench: " ^ s);
      exit 2)
    fmt

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> fail "%s: expected a non-negative integer, got %S" flag v

let specs o =
  [
    ( "--workload",
      "NAME",
      "run one workload in this process (grid, exec-long, runtime-churn, \
       serve-open)",
      fun v ->
        if W.find v = None then
          fail "unknown workload %S; valid: %s" v
            (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        o.workload <- Some v );
    ("--all", "", "run every workload, each in a child process", fun _ -> o.all <- true);
    ( "--repeat",
      "N",
      "run every workload N times in fresh processes, alternating the \
       order, and print each metric's median and quartiles",
      fun v -> o.repeat <- int_arg "--repeat" v );
    ("--seed", "N", "input seed (default 1)", fun v -> o.seed <- int_arg "--seed" v);
    ( "--seconds",
      "S",
      "length of the timed phase (default 15)",
      fun v ->
        match float_of_string_opt v with
        | Some s when s >= 0. -> o.seconds <- s
        | _ -> fail "--seconds: expected a non-negative number, got %S" v );
    ( "--trace",
      "0|1",
      "1 = traced run: layer wrappers, microbenchmarks, spans; prints the \
       per-layer metrics",
      fun v ->
        match v with
        | "0" -> o.trace <- false
        | "1" -> o.trace <- true
        | _ -> fail "--trace: expected 0 or 1, got %S" v );
    ( "--trace-dir",
      "DIR",
      "where a traced run writes WORKLOAD/spans.json and layers.json \
       (default _build/sdtbench)",
      fun v -> o.trace_dir <- v );
    ( "--scale",
      "full|smoke",
      "workload sizes (default full; smoke is the test-suite size)",
      fun v ->
        o.scale <-
          (match v with
          | "full" -> W.Full
          | "smoke" -> W.Smoke
          | _ -> fail "--scale: expected full or smoke, got %S" v) );
    ( "--exec-mode",
      "MODE",
      "interpreter loop: step, block (default), block-nochain or trace",
      fun v ->
        o.mode <-
          (match v with
          | "step" -> `Step
          | "block" -> `Block
          | "block-nochain" -> `Block_nochain
          | "trace" -> `Trace
          | _ -> fail "--exec-mode: unknown mode %S" v) );
    ("--check", "", "exit 1 if any operation failed", fun _ -> o.check <- true);
    ( "--json",
      "FILE",
      "with --all or --repeat, write the results with run provenance",
      fun v -> o.json <- Some v );
    ( "--expect",
      "FILE",
      "with --all, fail unless every metric BENCHMARK.json FILE names was \
       reported",
      fun v -> o.expect <- Some v );
    ( "--grid-ref",
      "FILE",
      "table digests the grid is checked against (default \
       bench/e2e/grid_ref.digest)",
      fun v -> o.grid_ref <- v );
    ( "--update-grid-ref",
      "",
      "recompute the grid's table digests into the --grid-ref file",
      fun _ -> o.update_grid_ref <- true );
  ]

let usage specs =
  "usage: sdtbench.exe [options]\n"
  ^ String.concat ""
      (List.map
         (fun (flag, value, doc, _) ->
           Printf.sprintf "  %-22s %s\n"
             (if value = "" then flag else flag ^ " " ^ value)
             doc)
         specs)

let parse_args () =
  let o =
    {
      workload = None;
      all = false;
      repeat = 0;
      seed = 1;
      seconds = 15.;
      trace = false;
      trace_dir = Filename.concat "_build" "sdtbench";
      scale = W.Full;
      mode = `Block;
      check = false;
      json = None;
      expect = None;
      grid_ref = Filename.concat "bench" (Filename.concat "e2e" "grid_ref.digest");
      update_grid_ref = false;
    }
  in
  let specs = specs o in
  let rec go = function
    | [] -> ()
    | ("--help" | "-help") :: _ ->
        print_string (usage specs);
        exit 0
    | arg :: rest -> (
        match List.find_opt (fun (flag, _, _, _) -> flag = arg) specs with
        | Some (_, "", _, handle) ->
            handle "";
            go rest
        | Some (flag, value, _, handle) -> (
            match rest with
            | v :: rest ->
                handle v;
                go rest
            | [] -> fail "%s needs a %s value\n%s" flag value (usage specs))
        | None -> fail "unknown argument %S\n%s" arg (usage specs))
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* ------------------------------------------------------------------ *)
(* One workload, in this process *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : metric list;  (** the end-to-end metrics BENCHMARK.json gates *)
  extra : metric list;  (** workload-specific end-to-end metrics *)
  layers : metric list;  (** traced runs only: the ones BENCHMARK.json lists *)
  layer_extra : metric list;  (** traced runs only: printed, not in the result *)
}

(* The successful executions of one operation, newest first. *)
type samples = { op : W.op; mutable outs : W.outcome list }

let first s = match List.rev s.outs with x :: _ -> Some x | [] -> None
let firsts samples = List.filter_map first samples

(* Host seconds per round: the sum over operations of each operation's
   fastest execution in this run. Other work on the host only ever slows
   an execution down, and on a shared machine it comes in bursts longer
   than one execution, so the minimum is the steadiest estimate of an
   operation's cost (the repository's perf gate keeps best-of-N for the
   same reason). *)
let per_round samples f =
  List.fold_left
    (fun acc s ->
      match s.outs with
      | [] -> acc
      | outs -> acc +. List.fold_left (fun m x -> Float.min m (f x)) infinity outs)
    0. samples

let sum_counts outcomes =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (o : W.outcome) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
        o.W.counts)
    outcomes;
  tbl

let sum_rt outcomes =
  let acc = M.rt_layers () in
  List.iter (fun (o : W.outcome) -> List.iter (M.add_rt_layers acc) o.W.rt) outcomes;
  acc

(* one of each physically distinct element *)
let distinct xs =
  List.fold_left (fun acc x -> if List.memq x acc then acc else x :: acc) [] xs
  |> List.rev

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_json file doc =
  Out_channel.with_open_text file (fun oc -> Jsonw.to_channel oc doc)

(* Wall time of each harness cell (one simulated run), read back from
   the library's Telemetry sink; empty when no cell ran. *)
let cell_metrics sink =
  let evs =
    match Jsonw.member "traceEvents" (Telemetry.to_chrome sink) with
    | Some (Jsonw.List evs) -> evs
    | _ -> []
  in
  let cells_ms =
    List.filter_map
      (fun e ->
        match (Jsonw.member "cat" e, Jsonw.member "dur" e) with
        | Some (Jsonw.Str "harness"), Some (Jsonw.Float us) -> Some (us /. 1e3)
        | Some (Jsonw.Str "harness"), Some (Jsonw.Int us) -> Some (float_of_int us /. 1e3)
        | _ -> None)
      evs
  in
  if cells_ms = [] then []
  else
    [
      metric "harness.cell_ms_p50" "ms" (M.median cells_ms);
      metric "harness.cell_ms_p99" "ms" (Option.get (M.percentile 0.99 cells_ms));
    ]

(* The per-layer metrics of a traced run: the ones every workload
   reports, which BENCHMARK.json lists, and the ones that are zero or
   absent on the workloads that bypass their layer. Host-time splits of
   translated runs come from the timed runs where the benchmark drives
   them itself, and from one wrapped probe run per program where the
   harness or the service drives them. *)
let layer_metrics (inst : W.instance) ~build_times ~samples ~probes ~sink =
  let progs = distinct (List.map (fun (p, _, _) -> p) inst.W.programs) in
  let runs =
    List.fold_left
      (fun acc (p, a, _) ->
        if List.exists (fun (q, b) -> q == p && b == a) acc then acc else acc @ [ (p, a) ])
      [] inst.W.programs
  in
  let micro name f = M.span ~cat:"microbench" name f in
  let ops_first = firsts samples in
  let attributed, attributed_first =
    if probes = [] then (List.concat_map (fun s -> s.outs) samples, ops_first)
    else (probes, probes)
  in
  let rt_all = sum_rt attributed and rt_first = sum_rt attributed_first in
  let counts = sum_counts (ops_first @ probes) in
  let count k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let rt_per_round f =
    let of_outcome (o : W.outcome) = List.fold_left (fun a r -> a +. f r) 0. o.W.rt in
    if probes = [] then per_round samples of_outcome
    else List.fold_left (fun acc o -> acc +. of_outcome o) 0. probes
  in
  let trap_self (r : M.rt_layers) = r.M.trap_s -. r.M.ensure_in_trap_s in
  let ns_per total n = total /. float_of_int (max 1 n) *. 1e9 in
  let counted names = List.map (fun k -> metric k "count" (count k)) names in
  let gated =
    [
      metric "workloads.build_s" "s" (M.median build_times);
      metric "isa.decode_ns_per_word" "ns" (micro "decode" (fun () -> M.decode_ns_per_word progs));
      metric "machine.load_us" "us" (micro "load" (fun () -> M.load_us progs));
      metric "machine.block_compile_us" "us"
        (micro "block_compile" (fun () -> M.block_compile_us progs));
      metric "march.timing_ns_per_event" "ns"
        (micro "timing" (fun () -> M.timing_ns_per_event runs));
      metric "core.create_us" "us" (micro "create" (fun () -> M.create_us inst.W.programs));
      metric "machine.exec_ns_per_instr" "ns"
        (ns_per (rt_all.M.run_s -. rt_all.M.trap_s) rt_all.M.steps);
    ]
    @ counted
        [
          "machine.block_decodes";
          "machine.block_invalidations";
          "machine.chain_hits";
          "march.icache_misses";
          "march.dcache_misses";
          "march.ind_mispredicts";
        ]
    @ [
        metric "march.runtime_cycle_share" "ratio"
          (count "march.runtime_cycles" /. Float.max 1. (count "march.cycles"));
        metric "core.traps" "count" (float_of_int rt_first.M.traps);
        metric "core.trap_self_s" "s" (rt_per_round trap_self);
        metric "core.trap_ns_per_call" "ns"
          (ns_per (rt_all.M.trap_s -. rt_all.M.ensure_in_trap_s) rt_all.M.traps);
        metric "core.ensure_calls" "count" (float_of_int rt_first.M.ensures);
        metric "core.ensure_s" "s" (rt_per_round (fun r -> r.M.ensure_s));
      ]
    @ counted [ "core.blocks_translated"; "core.ibtc_misses" ]
  in
  let reported = List.map (fun m -> m.m_name) gated @ [ "march.cycles"; "march.runtime_cycles" ] in
  (* everything else the operations counted or timed: layers some
     workloads bypass (flushes, dispatch, the service, the harness) *)
  let others =
    Hashtbl.fold (fun k _ acc -> if List.mem k reported then acc else k :: acc) counts []
    |> List.sort compare |> counted
  in
  let times =
    List.concat_map (fun (x : W.outcome) -> List.map fst x.W.times) ops_first
    |> List.sort_uniq compare
    |> List.map (fun k ->
           metric k "s"
             (per_round samples (fun o ->
                  Option.value ~default:0. (List.assoc_opt k o.W.times))))
  in
  (gated, others @ times @ Option.fold ~none:[] ~some:cell_metrics sink)

(* Run each operation once per round until [seconds] have passed and
   every operation has run [min_samples] times, or until three times
   [seconds] (at least a minute) have passed whatever failed. A failed
   execution counts against [failed] and is left out of the timings. *)
let timed_phase (inst : W.instance) ~seconds ~min_samples =
  let samples = List.map (fun op -> { op; outs = [] }) inst.W.ops in
  let attempted = ref 0 and failed = ref 0 and messages = ref [] in
  let rounds_run = ref 0 in
  let t_start = M.now () in
  let enough () =
    let elapsed = M.now () -. t_start in
    elapsed >= Float.max 60. (3. *. seconds)
    || (elapsed >= seconds && !rounds_run >= min_samples)
  in
  let execute s =
    (* each operation starts from a collected heap, outside its timed
       work: garbage left by the one before is not charged to it *)
    Gc.full_major ();
    let args = function
      | Some (Ok (x : W.outcome)) -> List.concat_map M.layer_args x.W.rt
      | _ -> []
    in
    match
      M.span ~cat:"op" s.op.W.op_name ~args (fun () ->
          match s.op.W.exec () with
          | x -> Ok x
          | exception e -> Error (Printexc.to_string e))
    with
    | Ok x ->
        let nf = min x.W.units (List.length x.W.failures) in
        attempted := !attempted + x.W.units;
        failed := !failed + nf;
        messages := !messages @ x.W.failures;
        if nf = 0 then s.outs <- x :: s.outs
    | Error msg ->
        attempted := !attempted + s.op.W.op_units;
        failed := !failed + s.op.W.op_units;
        messages := !messages @ [ s.op.W.op_name ^ ": " ^ msg ]
  in
  let rec rounds () =
    inst.W.round_start ();
    let stopped =
      List.exists (fun s -> enough () || (execute s; false)) samples
    in
    if not stopped then begin
      incr rounds_run;
      rounds ()
    end
  in
  M.span ~cat:"phase" "timed" rounds;
  (samples, !attempted, !failed, !messages)

let run_workload o (w : W.t) =
  let traced = o.trace in
  M.tracing := traced;
  let t_origin = M.now () in
  let setups, min_samples = match o.scale with W.Full -> (5, 3) | W.Smoke -> (1, 1) in
  (* set-up several times (a fixed number: memory the set-ups leave
     resident is part of the timed phase's peak); the last instance is
     the one measured *)
  let setup () =
    W.timed (fun () ->
        M.span ~cat:"phase" "setup" (fun () ->
            w.W.setup ~scale:o.scale ~seed:o.seed ~mode:o.mode ~traced
              ~grid_ref:o.grid_ref))
  in
  let inst, setup_times =
    let rec go n times =
      let i, dt = setup () in
      let times = (dt, i.W.build_s) :: times in
      if n <= 1 then (i, times) else go (n - 1) times
    in
    go setups []
  in
  let sink = if traced then Some (Telemetry.create ()) else None in
  Option.iter Telemetry.install sink;
  (* peak memory is that of the timed phase alone *)
  Gc.full_major ();
  M.reset_peak_rss ();
  let samples, attempted, failed, messages =
    timed_phase inst ~seconds:o.seconds ~min_samples
  in
  let peak = M.peak_rss_mb () in
  Telemetry.uninstall ();
  let probes = if traced then M.span ~cat:"phase" "probe" inst.W.probe else [] in
  let firsts = firsts samples in
  let wall = per_round samples (fun x -> x.W.secs) in
  let instrs = List.fold_left (fun a (x : W.outcome) -> a + x.W.instrs) 0 firsts in
  (* the same run, job or cell can recur across operations (grid
     experiments share cells): each counts once *)
  let slowdowns =
    let seen = Hashtbl.create 256 in
    List.concat_map (fun (x : W.outcome) -> x.W.slowdowns) firsts
    |> List.filter_map (fun (k, v) ->
           if Hashtbl.mem seen k then None
           else begin
             Hashtbl.add seen k ();
             Some v
           end)
  in
  let e2e =
    [
      metric "wall_s" "s" wall;
      metric "host_mips" "Minstr/s" (float_of_int instrs /. wall /. 1e6);
      metric "setup_s" "s" (M.median (List.map fst setup_times));
      metric "peak_rss_mb" "MiB" peak;
      metric "sim_slowdown_geomean" "ratio" (M.geomean slowdowns);
    ]
  in
  let extra =
    metric "fail_rate" "failed/attempted"
      (float_of_int failed /. float_of_int (max 1 attempted))
    ::
    (match List.concat_map (fun (x : W.outcome) -> x.W.latencies) firsts with
    | [] -> []
    | lats ->
        let jobs = List.length lats in
        let makespan = List.fold_left (fun a (x : W.outcome) -> max a x.W.makespan) 0 firsts in
        let mcycles p = float_of_int (Option.get (M.percentile p lats)) /. 1e6 in
        [
          metric "jobs_per_s" "jobs/s" (float_of_int jobs /. wall);
          metric "sim_latency_p50_mcycles" "Mcycles" (mcycles 0.5);
          metric "sim_latency_p95_mcycles" "Mcycles" (mcycles 0.95);
          metric "sim_jobs_per_gcycle" "jobs/Gcycle"
            (float_of_int jobs /. float_of_int (max 1 makespan) *. 1e9);
        ])
  in
  let layers, layer_extra =
    if not traced then ([], [])
    else
      layer_metrics inst
        ~build_times:(List.map snd setup_times)
        ~samples ~probes ~sink
  in
  List.iter (fun m -> prerr_endline ("sdtbench: " ^ w.W.name ^ ": " ^ m)) messages;
  if traced then begin
    let dir = Filename.concat o.trace_dir w.W.name in
    mkdir_p dir;
    write_json (Filename.concat dir "spans.json") (M.spans_json t_origin);
    write_json (Filename.concat dir "layers.json")
      (Jsonw.Obj
         (("workload", Jsonw.Str w.W.name)
          :: ("traced_wall_s", Jsonw.Float wall)
          :: List.map (fun m -> (m.m_name, Jsonw.Float m.m_value)) (layers @ layer_extra)));
    Option.iter
      (fun s ->
        Out_channel.with_open_text (Filename.concat dir "telemetry.json") (fun oc ->
            Telemetry.write_chrome oc s))
      sink
  end;
  { correct = failed = 0; attempted; failed; e2e; extra; layers; layer_extra }

(* ------------------------------------------------------------------ *)
(* Output *)

let finite v = if Float.is_finite v then v else 0.

let result_line r ~traced =
  let metrics = if traced then r.layers else r.e2e in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.m_name
              (finite m.m_value) m.m_unit)
          metrics))

let print_lines name r ~traced =
  List.iter
    (fun m -> Printf.printf "%s %s %.6g %s\n" name m.m_name m.m_value m.m_unit)
    (r.e2e @ r.extra @ if traced then r.layers @ r.layer_extra else []);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Child processes: --all and --repeat *)

type child = {
  c_correct : bool;  (** false too when the child failed to report *)
  c_attempted : int;
  c_failed : int;
  c_metrics : (string * (float * string)) list;
  c_traced_wall : float option;
}

let failed_child =
  { c_correct = false; c_attempted = 0; c_failed = 0; c_metrics = []; c_traced_wall = None }

let child_args o (w : W.t) ~seed ~traced =
  [
    Sys.executable_name;
    "--workload"; w.W.name;
    "--seed"; string_of_int seed;
    "--seconds"; Printf.sprintf "%g" o.seconds;
    "--trace"; (if traced then "1" else "0");
    "--trace-dir"; o.trace_dir;
    "--scale"; scale_name o.scale;
    "--exec-mode"; mode_name o.mode;
    "--grid-ref"; o.grid_ref;
  ]

let parse_result line =
  match Jsonw.of_string line with
  | Error _ -> None
  | Ok doc ->
      let int k = match Jsonw.member k doc with Some (Jsonw.Int i) -> i | _ -> 0 in
      let num = function
        | Some (Jsonw.Float f) -> f
        | Some (Jsonw.Int i) -> float_of_int i
        | _ -> nan
      in
      let unit v = match Jsonw.member "unit" v with Some (Jsonw.Str u) -> u | _ -> "" in
      Some
        {
          failed_child with
          c_correct = Jsonw.member "correct" doc = Some (Jsonw.Bool true);
          c_attempted = int "attempted";
          c_failed = int "failed";
          c_metrics =
            (match Jsonw.member "metrics" doc with
            | Some (Jsonw.Obj kvs) ->
                List.map (fun (k, v) -> (k, (num (Jsonw.member "value" v), unit v))) kvs
            | _ -> []);
        }

(* The traced wall time a traced child left in its layers.json. *)
let traced_wall o (w : W.t) =
  let file = Filename.concat (Filename.concat o.trace_dir w.W.name) "layers.json" in
  match Jsonw.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Ok doc -> (
      match Jsonw.member "traced_wall_s" doc with Some (Jsonw.Float f) -> Some f | _ -> None)
  | Error _ -> None
  | exception Sys_error _ -> None

(* Run one workload in a child, echoing its lines; the child's last line
   is its result. *)
let run_child o w ~seed ~traced =
  let args = child_args o w ~seed ~traced in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref "" in
  let rec pump () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line ->
        if !last <> "" then print_endline !last;
        last := line;
        pump ()
  in
  pump ();
  flush stdout;
  match (Unix.close_process_in ic, parse_result !last) with
  | Unix.WEXITED 0, Some c ->
      { c with c_traced_wall = (if traced then traced_wall o w else None) }
  | _ ->
      if !last <> "" then print_endline !last;
      Printf.eprintf "sdtbench: %s: child process failed\n%!" w.W.name;
      failed_child

let meta o =
  Meta.to_json ~jobs:1 ~exec_mode:(mode_name o.mode) ~cache:"cold"
    ~extra:
      [
        ("seed", Jsonw.Int o.seed);
        ("seconds", Jsonw.Float o.seconds);
        ("scale", Jsonw.Str (scale_name o.scale));
      ]
    ()

let child_json (w : W.t) c =
  Jsonw.Obj
    [
      ("workload", Jsonw.Str w.W.name);
      ("correct", Jsonw.Bool c.c_correct);
      ("attempted", Jsonw.Int c.c_attempted);
      ("failed", Jsonw.Int c.c_failed);
      ( "metrics",
        Jsonw.Obj
          (List.map
             (fun (k, (v, u)) ->
               (k, Jsonw.Obj [ ("value", Jsonw.Float v); ("unit", Jsonw.Str u) ]))
             c.c_metrics) );
    ]

(* The metric names a BENCHMARK.json lists under [key]. *)
let expected_metrics file key =
  match Jsonw.of_string (In_channel.with_open_text file In_channel.input_all) with
  | Error e -> fail "%s: %s" file e
  | Ok doc -> (
      match Jsonw.member key doc with
      | Some (Jsonw.List ms) ->
          List.filter_map
            (fun m -> match Jsonw.member "name" m with Some (Jsonw.Str s) -> Some s | _ -> None)
            ms
      | _ -> [])

let run_all o =
  let results =
    List.map
      (fun (w : W.t) ->
        let c = run_child o w ~seed:o.seed ~traced:false in
        let ct =
          if not o.trace then None
          else begin
            let ct = run_child o w ~seed:o.seed ~traced:true in
            (match (List.assoc_opt "wall_s" c.c_metrics, ct.c_traced_wall) with
            | Some (untraced, _), Some traced ->
                Printf.printf "%s tracing_overhead_s %.6g s\n%!" w.W.name
                  (traced -. untraced)
            | _ -> ());
            Some ct
          end
        in
        (w, c, ct))
      W.all
  in
  let missing =
    match o.expect with
    | None -> []
    | Some file ->
        let e2e = expected_metrics file "end_to_end" in
        let per_layer = expected_metrics file "per_layer" in
        List.concat_map
          (fun ((w : W.t), c, ct) ->
            List.filter_map
              (fun (names, (c : child option)) ->
                match c with
                | None -> None
                | Some c ->
                    let absent = List.filter (fun n -> not (List.mem_assoc n c.c_metrics)) names in
                    if absent = [] then None
                    else Some (w.W.name ^ ": not reported: " ^ String.concat ", " absent))
              [ (e2e, Some c); (per_layer, ct) ])
          results
  in
  List.iter (fun m -> prerr_endline ("sdtbench: " ^ m)) missing;
  Option.iter
    (fun file ->
      write_json file
        (Jsonw.Obj
           [
             ("meta", meta o);
             ( "workloads",
               Jsonw.List (List.map (fun (w, c, _) -> child_json w c) results) );
             ( "traced",
               Jsonw.List
                 (List.filter_map
                    (fun (w, _, ct) -> Option.map (child_json w) ct)
                    results) );
           ]))
    o.json;
  let bad =
    missing <> []
    || List.exists
         (fun (_, c, ct) ->
           List.exists (fun c -> not c.c_correct) (c :: Option.to_list ct))
         results
  in
  if o.check && bad then exit 1

let run_repeat o =
  let values = Hashtbl.create 64 in
  let bad = ref false in
  for i = 0 to o.repeat - 1 do
    let order = if i mod 2 = 0 then W.all else List.rev W.all in
    List.iter
      (fun (w : W.t) ->
        let c = run_child o w ~seed:(o.seed + i) ~traced:o.trace in
        if not c.c_correct then bad := true;
        List.iter
          (fun (k, (v, u)) ->
            let key = (w.W.name, k, u) in
            Hashtbl.replace values key
              (v :: Option.value ~default:[] (Hashtbl.find_opt values key)))
          c.c_metrics)
      order
  done;
  Printf.printf "\n%-14s %-28s %12s %12s %12s %8s\n" "workload" "metric" "median" "q1" "q3"
    "iqr/med";
  let rows =
    List.concat_map
      (fun (w : W.t) ->
        Hashtbl.fold
          (fun (wn, k, u) vs acc -> if wn = w.W.name then (wn, k, u, List.rev vs) :: acc else acc)
          values []
        |> List.sort compare)
      W.all
  in
  List.iter
    (fun (wn, k, u, vs) ->
      let med = M.median vs and q1, q3 = M.quartiles vs in
      Printf.printf "%-14s %-28s %12.6g %12.6g %12.6g %7.2f%%  %s\n" wn k med q1 q3
        (100. *. (q3 -. q1) /. Float.abs med)
        u)
    rows;
  Option.iter
    (fun file ->
      write_json file
        (Jsonw.Obj
           [
             ("meta", meta o);
             ("repeat", Jsonw.Int o.repeat);
             ( "samples",
               Jsonw.List
                 (List.map
                    (fun (wn, k, u, vs) ->
                      Jsonw.Obj
                        [
                          ("workload", Jsonw.Str wn);
                          ("metric", Jsonw.Str k);
                          ("unit", Jsonw.Str u);
                          ("values", Jsonw.List (List.map (fun v -> Jsonw.Float v) vs));
                        ])
                    rows) );
           ]))
    o.json;
  if o.check && !bad then exit 1

(* ------------------------------------------------------------------ *)

(* SDT_CFI and SDT_EXEC_MODE reconfigure the library for the whole
   process when it starts; the benchmark pins both, so it restarts
   itself without them. *)
let pin_environment () =
  let pinned v = String.starts_with ~prefix:"SDT_CFI=" v || String.starts_with ~prefix:"SDT_EXEC_MODE=" v in
  let env = Unix.environment () in
  if Array.exists pinned env then
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (List.filter (fun v -> not (pinned v)) (Array.to_list env)))

let () =
  pin_environment ();
  (* the harness's minor heap (see bench/main.ml): short-lived per-run
     garbage dies young *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let o = parse_args () in
  if o.update_grid_ref then begin
    Out_channel.with_open_text o.grid_ref (fun oc ->
        List.iter
          (fun (id, d) -> Printf.fprintf oc "%s %s\n" id d)
          (W.grid_digests ~mode:o.mode));
    Printf.printf "wrote %s\n" o.grid_ref
  end
  else if o.repeat > 0 then run_repeat o
  else if o.all then run_all o
  else
    match o.workload with
    | None -> fail "one of --workload, --all, --repeat or --update-grid-ref is required"
    | Some name ->
        let w = Option.get (W.find name) in
        let r = run_workload o w in
        print_lines name r ~traced:o.trace;
        print_endline (result_line r ~traced:o.trace);
        if o.check && not r.correct then exit 1
