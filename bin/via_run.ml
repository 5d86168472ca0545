(* via_run: run a VIA program (assembly source, image, or named
   workload), natively or under the software dynamic translator, on a
   chosen architecture model, printing program output and statistics. *)

module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Loader = Sdt_machine.Loader
module Config = Sdt_core.Config
module Stats = Sdt_core.Stats
module Runtime = Sdt_core.Runtime
module Cfi = Sdt_core.Cfi
module Suite = Sdt_workloads.Suite
module Serve = Sdt_serve.Serve
module Store = Sdt_serve.Store
module Registry = Sdt_observe.Registry
module Observer = Sdt_observe.Observer
module Trace = Sdt_observe.Trace
module Metrics = Sdt_observe.Metrics
module Profile = Sdt_observe.Profile
module Jsonw = Sdt_observe.Jsonw

open Cmdliner

let nearest_symbol symbols pc =
  List.fold_left
    (fun best (n, a) ->
      if a <= pc then
        match best with
        | Some (_, ba) when ba >= a -> best
        | _ -> Some (n, a)
      else best)
    None symbols

let with_out_file path f =
  match open_out path with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* --introspect: dump the block interpreter's chain graph and per-site
   inline-cache counters, plus (under a sieve) the bucket-chain
   histogram from the runtime. *)
let write_introspect ?site_mech ?cfi dir sieve m =
  match Machine.block_cache m with
  | None ->
      prerr_endline
        "note: --introspect needs a block exec mode (and no per-step \
         observer); no block cache was live, nothing dumped"
  | Some cache ->
      mkdir_p dir;
      with_out_file (Filename.concat dir "chain.dot") (fun oc ->
          output_string oc
            (Sdt_machine.Introspect.chain_dot ?site_mech ?cfi cache));
      let doc =
        match (Sdt_machine.Introspect.to_json ?site_mech ?cfi cache, sieve) with
        | Jsonw.Obj kvs, buckets when buckets <> [] ->
            let h =
              Sdt_observe.Histo.create
                ~bounds:[ 1; 2; 4; 8; 16; 32 ]
                "sieve_bucket_chain"
            in
            List.iter (Sdt_observe.Histo.observe h) buckets;
            Jsonw.Obj
              (kvs @ [ ("sieve_buckets", Sdt_observe.Histo.to_json h) ])
        | doc, _ -> doc
      in
      with_out_file (Filename.concat dir "introspect.json") (fun oc ->
          Jsonw.to_channel oc doc);
      Printf.eprintf "introspect: chain.dot and introspect.json in %s\n" dir

let block_stats_json m =
  match Machine.block_stats m with
  | None -> Jsonw.Null
  | Some s ->
      Jsonw.Obj
        [
          ("decodes", Jsonw.Int s.Sdt_machine.Block.st_decodes);
          ("invalidations", Jsonw.Int s.Sdt_machine.Block.st_invalidations);
          ("chain_hits", Jsonw.Int s.Sdt_machine.Block.st_chain_hits);
          ("chain_severs", Jsonw.Int s.Sdt_machine.Block.st_chain_severs);
          ("trace_compiles", Jsonw.Int s.Sdt_machine.Block.st_trace_compiles);
          ("trace_entries", Jsonw.Int s.Sdt_machine.Block.st_trace_entries);
          ("side_exits", Jsonw.Int s.Sdt_machine.Block.st_side_exits);
          ("trace_severs", Jsonw.Int s.Sdt_machine.Block.st_trace_severs);
          ("trace_aborts", Jsonw.Int s.Sdt_machine.Block.st_trace_aborts);
        ]

(* Unreadable or malformed input ends the run like a bad flag: one
   line, exit 2. *)
let load_program file workload size =
  match (file, workload) with
  | Some path, None -> (
      try
        if Filename.check_suffix path ".via" then
          Sdt_isa.Assembler.assemble_file path
        else Sdt_isa.Image.load path
      with
      | Sdt_isa.Assembler.Error { line; msg } ->
          Printf.eprintf "%s:%d: %s\n" path line msg;
          exit 2
      | Sdt_isa.Image.Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2
      | Sys_error msg ->
          prerr_endline msg;
          exit 2)
  | None, Some name -> (
      match Suite.find name with
      | Some e -> Suite.program e size
      | None ->
          Printf.eprintf "unknown workload %S; available: %s\n" name
            (String.concat ", " Suite.names);
          exit 2)
  | Some _, Some _ | None, None ->
      prerr_endline "exactly one of FILE or --workload is required";
      exit 2

let mechanism_of mech ibtc_entries sieve_buckets inline miss_policy ways =
  match mech with
  | "dispatch" -> Config.Dispatch
  | "ibtc" ->
      Config.Ibtc
        {
          Config.default_ibtc with
          entries = ibtc_entries;
          ways;
          inline_lookup = inline;
          miss = (if miss_policy = "full" then Config.Full_switch else Config.Fast_reload);
        }
  | "ibtc-per-branch" ->
      Config.Ibtc
        { Config.default_ibtc with shared = false; per_site_entries = ibtc_entries }
  | "sieve" -> Config.Sieve { buckets = sieve_buckets; insert_at_head = true }
  | "adaptive" -> Config.Adaptive Config.default_adaptive
  | other ->
      Printf.eprintf "unknown mechanism %S\n" other;
      exit 2

let returns_of returns =
  match returns with
  | "as-ib" -> Config.As_ib
  | "retcache" -> Config.Return_cache { entries = 4096 }
  | "shadow" -> Config.Shadow_stack { depth = 1024 }
  | "fast" -> Config.Fast_return
  | other ->
      Printf.eprintf "unknown return policy %S\n" other;
      exit 2

(* the end-of-run profiling report: overhead decomposition, hottest
   fragments, per-site IB telemetry *)
let print_profile prof symbols total_cycles =
  let attributed = Profile.attributed_cycles prof in
  Printf.printf "\n--- profile: cycle breakdown ---\n";
  Printf.printf "attributed cycles: %d of %d\n" attributed total_cycles;
  let app_cycles =
    List.fold_left
      (fun acc { Profile.cycles; _ } -> acc + cycles)
      0 (Profile.hot_fragments prof)
  in
  let pct c =
    if attributed = 0 then 0.0
    else 100.0 *. float_of_int c /. float_of_int attributed
  in
  Printf.printf "  %-28s %12d  %5.1f%%\n" "application blocks" app_cycles
    (pct app_cycles);
  List.iter
    (fun (name, cycles) ->
      Printf.printf "  %-28s %12d  %5.1f%%\n" name cycles (pct cycles))
    (Profile.service_breakdown prof);
  Printf.printf "--- hottest fragments ---\n";
  List.iteri
    (fun i { Profile.app_pc; cycles; insts } ->
      if i < 10 then
        Printf.printf "  %08x %-20s %12d cycles %10d insts\n" app_pc
          (match nearest_symbol symbols app_pc with
          | Some (n, a) -> Printf.sprintf "%s+0x%x" n (app_pc - a)
          | None -> "?")
          cycles insts)
    (Profile.hot_fragments prof);
  let sites = Profile.ib_sites prof in
  if sites <> [] then begin
    Printf.printf "--- indirect-branch sites ---\n";
    List.iteri
      (fun i { Profile.site_pc; executions; distinct_targets; entropy_bits } ->
        if i < 10 then
          Printf.printf "  %-28s %10d execs %6d targets %6.2f bits\n"
            (if site_pc < 0 then "(pooled: shared routines)"
             else
               Printf.sprintf "%08x %s" site_pc
                 (match nearest_symbol symbols site_pc with
                 | Some (n, a) -> Printf.sprintf "%s+0x%x" n (site_pc - a)
                 | None -> "?"))
            executions distinct_targets entropy_bits)
      sites
  end

(* block-cache activity (compiled blocks, SMC recompiles, chain-link
   hits/severs); only the block modes have any *)
let print_block_stats m =
  match Machine.block_stats m with
  | None -> ()
  | Some s ->
      Printf.printf
        "block cache:  %d decodes, %d invalidations, %d chain hits, %d chain \
         severs\n"
        s.Sdt_machine.Block.st_decodes s.Sdt_machine.Block.st_invalidations
        s.Sdt_machine.Block.st_chain_hits s.Sdt_machine.Block.st_chain_severs;
      if s.Sdt_machine.Block.st_trace_compiles > 0 then
        Printf.printf
          "trace tier:   %d compiles, %d entries, %d side exits, %d severs, \
           %d SMC aborts\n"
          s.Sdt_machine.Block.st_trace_compiles
          s.Sdt_machine.Block.st_trace_entries
          s.Sdt_machine.Block.st_side_exits
          s.Sdt_machine.Block.st_trace_severs
          s.Sdt_machine.Block.st_trace_aborts

(* --serve "NAME=PROG[xJOBS],...": one tenant per element. PROG is a
   suite workload (sized by --size, or explicitly with @N) or
   micro:SEED, a generated IB microbenchmark. *)
let parse_tenant size s =
  let fail msg =
    Printf.eprintf "--serve: %s in %S\n" msg s;
    exit 2
  in
  let name, prog =
    match String.index_opt s '=' with
    | Some i when i > 0 ->
        ( String.sub s 0 i,
          String.sub s (i + 1) (String.length s - i - 1) )
    | _ -> fail "expected NAME=PROG"
  in
  let prog, jobs =
    match String.rindex_opt prog 'x' with
    | Some i
      when i < String.length prog - 1
           && String.for_all
                (fun c -> c >= '0' && c <= '9')
                (String.sub prog (i + 1) (String.length prog - i - 1)) ->
        ( String.sub prog 0 i,
          int_of_string (String.sub prog (i + 1) (String.length prog - i - 1))
        )
    | _ -> (prog, 1)
  in
  let pspec =
    if String.length prog > 6 && String.sub prog 0 6 = "micro:" then
      match int_of_string_opt (String.sub prog 6 (String.length prog - 6)) with
      | Some seed ->
          Serve.Micro
            {
              Sdt_workloads.Synthetic.ib_sites = 4;
              targets = 8;
              fns = 2;
              recursion_depth = 1;
              iters = 600;
              seed;
            }
      | None -> fail "micro: needs an integer seed"
    else
      let wl, sz =
        match String.index_opt prog '@' with
        | Some i -> (
            ( String.sub prog 0 i,
              match
                int_of_string_opt
                  (String.sub prog (i + 1) (String.length prog - i - 1))
              with
              | Some n when n > 0 -> Some n
              | _ -> fail "@SIZE must be a positive integer" ))
        | None -> (prog, None)
      in
      match Suite.find wl with
      | None ->
          fail
            (Printf.sprintf "unknown workload %S (available: %s)" wl
               (String.concat ", " Suite.names))
      | Some e ->
          let sz =
            match sz with
            | Some n -> n
            | None -> (
                match size with
                | `Test -> e.Suite.test_size
                | `Ref -> e.Suite.ref_size)
          in
          Serve.Workload { wl; size = sz }
  in
  Serve.tenant ~jobs name pspec

let serve_report_json (spec : Serve.spec) exec_mode_name (r : Serve.report) =
  let tenant_json (t : Serve.tenant_line) =
    Jsonw.Obj
      [
        ("name", Jsonw.Str t.Serve.tl_name);
        ("jobs", Jsonw.Int t.Serve.tl_jobs);
        ( "checksum",
          Jsonw.Str (Printf.sprintf "0x%08x" t.Serve.tl_checksum) );
        ("mean_latency", Jsonw.Float t.Serve.tl_mean_latency);
        ("p99_latency", Jsonw.Float t.Serve.tl_p99);
        ("dedup_hits", Jsonw.Int t.Serve.tl_dedup_hits);
        ("flush_marks", Jsonw.Int t.Serve.tl_flush_marks);
        ("cfi_checks", Jsonw.Int t.Serve.tl_cfi_checks);
        ("cfi_violations", Jsonw.Int t.Serve.tl_cfi_violations);
        ("cfi_elided", Jsonw.Int t.Serve.tl_cfi_elided);
      ]
  in
  Jsonw.Obj
    [
      ("config", Jsonw.Str (Serve.describe spec));
      ("cfi_policy", Jsonw.Str (Config.cfi_name spec.Serve.sp_cfg.Config.cfi));
      ("exec_mode", Jsonw.Str exec_mode_name);
      ("jobs", Jsonw.Int r.Serve.rp_jobs);
      ("epochs", Jsonw.Int r.Serve.rp_epochs);
      ("makespan_cycles", Jsonw.Int r.Serve.rp_makespan);
      ("instructions", Jsonw.Int r.Serve.rp_instrs);
      ("cycles", Jsonw.Int r.Serve.rp_cycles);
      ("throughput_jobs_per_gcyc", Jsonw.Float r.Serve.rp_throughput);
      ("aggregate_mips", Jsonw.Float r.Serve.rp_agg_mips);
      ("latency_p50", Jsonw.Float r.Serve.rp_p50);
      ("latency_p90", Jsonw.Float r.Serve.rp_p90);
      ("latency_p99", Jsonw.Float r.Serve.rp_p99);
      ("dedup_hits", Jsonw.Int r.Serve.rp_dedup_hits);
      ("dedup_insts", Jsonw.Int r.Serve.rp_dedup_insts);
      ("flush_marks", Jsonw.Int r.Serve.rp_flush_marks);
      ("flushes", Jsonw.Int r.Serve.rp_flushes);
      ("store_peak_bytes", Jsonw.Int r.Serve.rp_store_peak);
      ("store_final_bytes", Jsonw.Int r.Serve.rp_store_final);
      ("evictions", Jsonw.Int r.Serve.rp_evictions);
      ("evicted_bytes", Jsonw.Int r.Serve.rp_evicted_bytes);
      ("rejects", Jsonw.Int r.Serve.rp_rejects);
      ("checksum", Jsonw.Str (Printf.sprintf "0x%08x" r.Serve.rp_checksum));
      ("cfi_checks", Jsonw.Int r.Serve.rp_cfi_checks);
      ("cfi_violations", Jsonw.Int r.Serve.rp_cfi_violations);
      ("cfi_elided", Jsonw.Int r.Serve.rp_cfi_elided);
      ("tenants", Jsonw.List (List.map tenant_json r.Serve.rp_tenants));
    ]

let run_serve tenants size arch cfg exec_mode exec_mode_name policy_name bound
    budget no_dedup quantum servers schedule_name show_stats stats_json =
  let tenant_specs =
    List.map (parse_tenant size) (String.split_on_char ',' tenants)
  in
  let policy =
    match Store.policy_of_name policy_name with
    | Some p -> p
    | None ->
        Printf.eprintf "--policy: expected flush-all, fifo or gen, got %S\n"
          policy_name;
        exit 2
  in
  let schedule =
    match String.split_on_char ':' schedule_name with
    | [ "closed" ] -> Serve.Closed
    | [ "open"; p ] -> (
        match int_of_string_opt p with
        | Some period when period > 0 -> Serve.Open_loop { period }
        | _ ->
            prerr_endline "--schedule open:PERIOD needs a positive period";
            exit 2)
    | _ ->
        Printf.eprintf
          "--schedule: expected closed or open:PERIOD, got %S\n" schedule_name;
        exit 2
  in
  let spec =
    try
      Serve.spec ~arch ~cfg ~policy ~bound ~budget ~dedup:(not no_dedup)
        ~quantum ~servers ~schedule tenant_specs
    with Serve.Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2
  in
  let result =
    try Serve.run ~mode:exec_mode spec
    with Serve.Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let r = Serve.report_of_result result in
  Printf.printf "--- serve: %s ---\n" (Serve.describe spec);
  Printf.printf "jobs:          %d in %d epochs, makespan %d cycles\n"
    r.Serve.rp_jobs r.Serve.rp_epochs r.Serve.rp_makespan;
  Printf.printf "throughput:    %.1f jobs/Gcyc, %.1f aggregate MIPS\n"
    r.Serve.rp_throughput r.Serve.rp_agg_mips;
  Printf.printf "latency:       p50 %.0f  p90 %.0f  p99 %.0f cycles\n"
    r.Serve.rp_p50 r.Serve.rp_p90 r.Serve.rp_p99;
  Printf.printf "dedup:         %d hits (%d insts served by copy)\n"
    r.Serve.rp_dedup_hits r.Serve.rp_dedup_insts;
  Printf.printf
    "store:         %d bytes peak, %d final; %d evictions (%d bytes), %d \
     rejects\n"
    r.Serve.rp_store_peak r.Serve.rp_store_final r.Serve.rp_evictions
    r.Serve.rp_evicted_bytes r.Serve.rp_rejects;
  Printf.printf "invalidation:  %d flush marks, %d cache flushes\n"
    r.Serve.rp_flush_marks r.Serve.rp_flushes;
  if cfg.Config.cfi <> Config.Cfi_none then
    Printf.printf
      "cfi (%s):      %d checks, %d violations, %d elided on hit paths\n"
      (Config.cfi_name cfg.Config.cfi)
      r.Serve.rp_cfi_checks r.Serve.rp_cfi_violations r.Serve.rp_cfi_elided;
  Printf.printf "checksum:      0x%08x\n" r.Serve.rp_checksum;
  print_endline "per tenant:";
  List.iter
    (fun (t : Serve.tenant_line) ->
      Printf.printf
        "  %-12s %3d jobs  cks 0x%08x  mean %10.0f  p99 %10.0f  %d hits  %d \
         marks%s\n"
        t.Serve.tl_name t.Serve.tl_jobs t.Serve.tl_checksum
        t.Serve.tl_mean_latency t.Serve.tl_p99 t.Serve.tl_dedup_hits
        t.Serve.tl_flush_marks
        (if cfg.Config.cfi = Config.Cfi_none then ""
         else
           Printf.sprintf "  cfi %d/%d/%d" t.Serve.tl_cfi_checks
             t.Serve.tl_cfi_violations t.Serve.tl_cfi_elided))
    r.Serve.rp_tenants;
  if show_stats then begin
    print_endline "--- registry counters ---";
    List.iter
      (fun (id, v) -> Printf.printf "  %-40s %d\n" id v)
      (Registry.counters result.Serve.res_registry)
  end;
  Option.iter
    (fun path ->
      with_out_file path (fun oc ->
          Jsonw.to_channel oc (serve_report_json spec exec_mode_name r);
          output_char oc '\n'))
    stats_json;
  0

(* A guest that faults or breaks the machine ends the run with one
   line and exit 1. *)
let guest_errors f =
  match f () with
  | code -> code
  | exception Sdt_machine.Memory.Fault { addr; kind } ->
      Printf.eprintf "guest fault: %s at %#x\n" kind addr;
      1
  | exception (Machine.Error msg | Runtime.Error msg) ->
      Printf.eprintf "guest error: %s\n" msg;
      1

let run file workload size_name native arch_name mech ibtc_entries
    sieve_buckets inline miss_policy returns pred no_link traces ways
    profile_ib shepherd cfi_name show_stats trace_steps dump_frags max_steps
    trace_file
    metrics_file profile sample_interval exec_mode_name introspect_dir
    stats_json serve_tenants serve_policy serve_bound serve_budget no_dedup
    serve_quantum serve_servers serve_schedule =
  if sample_interval <= 0 then begin
    prerr_endline "--sample-interval must be positive";
    exit 2
  end;
  let exec_mode =
    match exec_mode_name with
    | "step" -> `Step
    | "block" -> `Block
    | "block-nochain" -> `Block_nochain
    | "trace" -> `Trace
    | other ->
        Printf.eprintf
          "unknown exec mode %S (step, block, block-nochain, trace)\n" other;
        exit 2
  in
  let size = if size_name = "ref" then `Ref else `Test in
  let arch =
    match Arch.by_name arch_name with
    | Some a -> a
    | None ->
        Printf.eprintf "unknown architecture %S (archA, archB, ideal)\n"
          arch_name;
        exit 2
  in
  (* --cfi overrides the SDT_CFI-derived default; absent, the policy
     baked into [Config.default] (env or none) stands *)
  let cfi =
    match cfi_name with
    | None -> Config.default.Config.cfi
    | Some s -> (
        match Config.cfi_of_string s with
        | Ok p -> p
        | Error msg ->
            Printf.eprintf "--cfi: %s\n" msg;
            exit 2)
  in
  guest_errors @@ fun () ->
  match serve_tenants with
  | Some tenants ->
      let cfg =
        {
          Config.default with
          mech =
            mechanism_of mech ibtc_entries sieve_buckets inline miss_policy
              ways;
          returns = returns_of returns;
          pred_depth = pred;
          link_direct = not no_link;
          follow_direct_jumps = traces;
          cfi;
        }
      in
      run_serve tenants size arch cfg exec_mode exec_mode_name serve_policy
        serve_bound serve_budget no_dedup serve_quantum serve_servers
        serve_schedule show_stats stats_json
  | None ->
  let program = load_program file workload size in
  let timing = Timing.create arch in
  let traced m =
    (* single-step the first N instructions, printing a disassembly
       trace, then continue at full speed *)
    if trace_steps > 0 then begin
      let steps = ref 0 in
      while Machine.exit_code m = None && !steps < trace_steps do
        let pc = m.Machine.pc in
        let i = Sdt_machine.Memory.fetch m.Machine.mem pc in
        Printf.eprintf "%8d  %08x  %s
" !steps pc
          (Sdt_isa.Disasm.inst ~pc i);
        Machine.step m;
        incr steps
      done
    end
  in
  if native then begin
    if trace_file <> None || metrics_file <> None || profile then
      prerr_endline
        "note: --trace/--metrics/--profile observe the translator; ignored \
         under --native";
    let m = Loader.load ~timing program in
    if introspect_dir <> None then Machine.set_block_introspect m true;
    traced m;
    (match exec_mode with
    | `Step -> Machine.run ~max_steps m
    | `Block -> Machine.run_blocks ~max_steps m
    | `Block_nochain -> Machine.run_blocks ~chain:false ~max_steps m
    | `Trace -> Machine.run_blocks ~trace:true ~max_steps m);
    print_string (Machine.output m);
    Printf.printf "\n--- native on %s ---\n" arch.Arch.name;
    Printf.printf "instructions: %d\n" m.Machine.c.Machine.instructions;
    Printf.printf "cycles:       %d\n" (Timing.cycles timing);
    Printf.printf "indirect branches: %d\n" (Machine.ib_dynamic_count m);
    print_block_stats m;
    Printf.printf "checksum:     0x%08x\n" m.Machine.checksum;
    Printf.printf "exit code:    %s\n"
      (match Machine.exit_code m with Some c -> string_of_int c | None -> "-");
    Option.iter (fun dir -> write_introspect dir [] m) introspect_dir;
    Option.iter
      (fun path ->
        with_out_file path (fun oc ->
            Jsonw.to_channel oc
              (Jsonw.Obj
                 [
                   ("config", Jsonw.Str "native");
                   ("arch", Jsonw.Str arch.Arch.name);
                   ("exec_mode", Jsonw.Str exec_mode_name);
                   ("instructions", Jsonw.Int m.Machine.c.Machine.instructions);
                   ("cycles", Jsonw.Int (Timing.cycles timing));
                   ( "indirect_branches",
                     Jsonw.Int (Machine.ib_dynamic_count m) );
                   ( "checksum",
                     Jsonw.Str (Printf.sprintf "0x%08x" m.Machine.checksum) );
                   ( "exit_code",
                     match Machine.exit_code m with
                     | Some c -> Jsonw.Int c
                     | None -> Jsonw.Null );
                   ("block_cache", block_stats_json m);
                 ])))
      stats_json;
    0
  end
  else begin
    let cfg =
      {
        Config.default with
        mech = mechanism_of mech ibtc_entries sieve_buckets inline miss_policy ways;
        returns = returns_of returns;
        pred_depth = pred;
        link_direct = not no_link;
        follow_direct_jumps = traces;
        profile_ib_sites = profile_ib;
        shepherd;
        cfi;
      }
    in
    (match Config.validate cfg with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "invalid configuration: %s\n" msg;
        exit 2);
    let tracer = Option.map (fun _ -> Trace.create ()) trace_file in
    let metrics = Option.map (fun _ -> Metrics.create ()) metrics_file in
    let prof = if profile then Some (Profile.create ()) else None in
    let observer =
      if tracer = None && metrics = None && prof = None then None
      else
        Some
          (Observer.create
             ~clock:(fun () -> Timing.cycles timing)
             ?trace:tracer ?metrics ?profile:prof
             ~sample_interval ())
    in
    let rt = Runtime.create ~cfg ~arch ~timing ?observer program in
    if introspect_dir <> None then
      Machine.set_block_introspect (Runtime.machine rt) true;
    (* with --trace, translate the entry block first (a zero-step run
       raises the step-limit error after doing exactly that), then
       single-step from the fragment cache *)
    if trace_steps > 0 then (
      try Runtime.run ~max_steps:0 rt with Machine.Error _ -> ());
    (try
       traced (Runtime.machine rt);
       Runtime.run ~max_steps ~mode:exec_mode rt
     with
    | Runtime.Policy_violation { target } ->
        Printf.printf "POLICY VIOLATION: control transfer to %#x blocked\n"
          target
    | Cfi.Violation { site_pc; target } ->
        Printf.printf
          "CFI VIOLATION: transfer%s to %#x failed the %s policy check\n"
          (if site_pc <> 0 then Printf.sprintf " from %#x" site_pc else "")
          target
          (Config.cfi_name cfg.Config.cfi));
    let m = Runtime.machine rt in
    print_string (Machine.output m);
    Printf.printf "\n--- SDT %s on %s ---\n" (Config.describe cfg) arch.Arch.name;
    Printf.printf "machine steps: %d\n" m.Machine.c.Machine.instructions;
    Printf.printf "cycles:        %d\n" (Timing.cycles timing);
    Printf.printf "runtime cycles: %d\n" (Timing.runtime_cycles timing);
    Printf.printf "code bytes:    %d\n" (Runtime.code_bytes rt);
    print_block_stats m;
    (if cfg.Config.cfi <> Config.Cfi_none then
       let s = Runtime.stats rt in
       let elided =
         max 0 (Machine.ib_dynamic_count m - s.Stats.cfi_checks)
       in
       Printf.printf
         "cfi (%s):      %d checks (%d first-use), %d violations, %d \
          xcalls, %d elided on hit paths\n"
         (Config.cfi_name cfg.Config.cfi)
         s.Stats.cfi_checks s.Stats.cfi_validations s.Stats.cfi_violations
         s.Stats.cfi_xcalls elided);
    Printf.printf "checksum:      0x%08x\n" m.Machine.checksum;
    Printf.printf "exit code:     %s\n"
      (match Machine.exit_code m with Some c -> string_of_int c | None -> "-");
    if show_stats then Format.printf "%a@." Stats.pp (Runtime.stats rt);
    if dump_frags then begin
      let frags = Runtime.fragments rt in
      let symbols = program.Sdt_isa.Program.symbols in
      let nearest pc = nearest_symbol symbols pc in
      print_endline "--- fragment map (emission order) ---";
      let ends =
        List.tl (List.map snd frags) @ [ 0x0040_0000 + Runtime.code_bytes rt ]
      in
      List.iter2
        (fun (app, frag) fin ->
          Printf.printf "fragment %08x <- app %08x %s (%d bytes)\n" frag app
            (match nearest app with
            | Some (n, a) -> Printf.sprintf "(%s+0x%x)" n (app - a)
            | None -> "")
            (fin - frag);
          let mem = (Runtime.machine rt).Machine.mem in
          let rec dis pc =
            if pc < fin && pc < frag + 64 then begin
              Printf.printf "    %08x  %s\n" pc
                (Sdt_isa.Disasm.inst ~pc (Sdt_machine.Memory.fetch mem pc));
              dis (pc + 4)
            end
          in
          dis frag)
        frags ends
    end;
    if profile_ib then begin
      let symbols = program.Sdt_isa.Program.symbols in
      let nearest pc = nearest_symbol symbols pc in
      print_endline "--- hottest indirect-branch sites ---";
      List.iteri
        (fun i (pc, count) ->
          if i < 10 && count > 0 then
            Printf.printf "  %08x %-20s %d\n" pc
              (match nearest pc with
              | Some (n, a) -> Printf.sprintf "%s+0x%x" n (pc - a)
              | None -> "?")
              count)
        (Runtime.ib_site_profile rt)
    end;
    (match (trace_file, tracer) with
    | Some path, Some tr ->
        with_out_file path (fun oc -> Trace.write_chrome oc tr);
        Printf.eprintf "trace: %d events to %s (%d dropped)\n"
          (Trace.recorded tr) path (Trace.dropped tr)
    | _ -> ());
    (match (metrics_file, metrics) with
    | Some path, Some m ->
        if Filename.check_suffix path ".json" then
          with_out_file path (fun oc ->
              Jsonw.to_channel oc (Metrics.to_json m);
              output_char oc '\n')
        else with_out_file path (fun oc -> output_string oc (Metrics.to_csv m));
        Printf.eprintf "metrics: %d samples x %d series to %s\n"
          (Metrics.samples m)
          (List.length (Metrics.columns m))
          path
    | _ -> ());
    Option.iter
      (fun p ->
        print_profile p program.Sdt_isa.Program.symbols (Timing.cycles timing))
      prof;
    (* under the adaptive mechanism, attribute introspected IB-site
       addresses (fragment-cache pcs) to their owning adaptive site so
       the reports carry each site's current tier, transition history
       and re-patch count; static mechanisms have nothing to attribute
       — their sites never change hands *)
    let site_mech =
      match cfg.Config.mech with
      | Config.Adaptive _ ->
          Some
            (fun addr ->
              Option.map
                (fun (si : Sdt_core.Adapt.site_info) ->
                  {
                    Sdt_machine.Introspect.sm_mech = si.Sdt_core.Adapt.si_tier;
                    sm_transitions = si.Sdt_core.Adapt.si_transitions;
                    sm_repatches = si.Sdt_core.Adapt.si_repatches;
                  })
                (Runtime.adapt_site_at rt addr))
      | _ -> None
    in
    (* attribute CFI violations (recorded against application PCs) to
       the fragments that translated them, then key the view by emitted
       code address — the address space introspection sees *)
    let cfi_view =
      if cfg.Config.cfi = Config.Cfi_none then None
      else begin
        let frags = Runtime.fragments rt in
        let by_app =
          Array.of_list (List.sort compare frags) (* ascending app pc *)
        in
        let owner pc =
          (* greatest fragment app start <= pc, within a block's reach *)
          let best = ref None in
          Array.iter
            (fun (app, frag) ->
              if app <= pc && pc - app < 4096 then best := Some frag)
            by_app;
          !best
        in
        let counts = Hashtbl.create 16 in
        List.iter
          (fun (pc, n) ->
            match owner pc with
            | Some frag ->
                Hashtbl.replace counts frag
                  (n + Option.value ~default:0 (Hashtbl.find_opt counts frag))
            | None -> ())
          (Runtime.cfi_violation_sites rt);
        let by_frag =
          Array.of_list
            (List.sort compare (List.map (fun (_, f) -> f) frags))
        in
        Some
          {
            Sdt_machine.Introspect.cv_policy = Config.cfi_name cfg.Config.cfi;
            cv_violations =
              (fun addr ->
                (* the fragment owning an emitted-code address *)
                let best = ref None in
                Array.iter
                  (fun frag -> if frag <= addr then best := Some frag)
                  by_frag;
                match !best with
                | Some frag ->
                    Option.value ~default:0 (Hashtbl.find_opt counts frag)
                | None -> 0);
          }
      end
    in
    Option.iter
      (fun dir ->
        write_introspect ?site_mech ?cfi:cfi_view dir
          (Runtime.sieve_buckets rt) m)
      introspect_dir;
    Option.iter
      (fun path ->
        with_out_file path (fun oc ->
            Jsonw.to_channel oc
              (Jsonw.Obj
                 [
                   ("config", Jsonw.Str (Config.describe cfg));
                   ("arch", Jsonw.Str arch.Arch.name);
                   ("exec_mode", Jsonw.Str exec_mode_name);
                   ("instructions", Jsonw.Int m.Machine.c.Machine.instructions);
                   ("cycles", Jsonw.Int (Timing.cycles timing));
                   ("runtime_cycles", Jsonw.Int (Timing.runtime_cycles timing));
                   ("code_bytes", Jsonw.Int (Runtime.code_bytes rt));
                   ( "checksum",
                     Jsonw.Str (Printf.sprintf "0x%08x" m.Machine.checksum) );
                   ( "exit_code",
                     match Machine.exit_code m with
                     | Some c -> Jsonw.Int c
                     | None -> Jsonw.Null );
                   ( "stats",
                     Jsonw.Obj
                       (List.map
                          (fun (k, v) -> (k, Jsonw.Int v))
                          (Stats.to_assoc (Runtime.stats rt))) );
                   ("block_cache", block_stats_json m);
                   ( "mech",
                     Jsonw.Obj
                       (List.map
                          (fun (k, v) -> (k, Jsonw.Float v))
                          (Runtime.mech_stats rt)) );
                   ( "cfi",
                     if cfg.Config.cfi = Config.Cfi_none then Jsonw.Null
                     else
                       let s = Runtime.stats rt in
                       Jsonw.Obj
                         ([
                            ( "policy",
                              Jsonw.Str (Config.cfi_name cfg.Config.cfi) );
                            ("checks", Jsonw.Int s.Stats.cfi_checks);
                            ("validations", Jsonw.Int s.Stats.cfi_validations);
                            ("violations", Jsonw.Int s.Stats.cfi_violations);
                            ("xcalls", Jsonw.Int s.Stats.cfi_xcalls);
                            ( "elided",
                              Jsonw.Int
                                (max 0
                                   (Machine.ib_dynamic_count m
                                   - s.Stats.cfi_checks)) );
                          ]
                         @ List.map
                             (fun (k, v) -> (k, Jsonw.Int v))
                             (Runtime.cfi_report rt)) );
                 ])))
      stats_json;
    0
  end

let file =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
       ~doc:"VIA assembly source (.via) or image file.")

let workload =
  Arg.(value & opt (some string) None & info [ "workload"; "w" ] ~docv:"NAME"
       ~doc:"Run a named benchmark workload instead of a file.")

let size_name =
  Arg.(value & opt string "test" & info [ "size" ] ~docv:"SIZE"
       ~doc:"Workload size: test or ref.")

let native =
  Arg.(value & flag & info [ "native"; "n" ]
       ~doc:"Run natively (no translation).")

let arch_name =
  Arg.(value & opt string "archA" & info [ "arch" ] ~docv:"ARCH"
       ~doc:"Architecture model: archA, archB or ideal.")

let mech =
  Arg.(value & opt string "ibtc" & info [ "mech"; "m" ] ~docv:"MECH"
       ~doc:"IB mechanism: dispatch, ibtc, ibtc-per-branch, sieve or \
             adaptive (per-site online selection).")

let ibtc_entries =
  Arg.(value & opt int 4096 & info [ "ibtc-entries" ] ~docv:"N"
       ~doc:"IBTC entries (power of two).")

let sieve_buckets =
  Arg.(value & opt int 4096 & info [ "sieve-buckets" ] ~docv:"N"
       ~doc:"Sieve buckets (power of two).")

let inline =
  Arg.(value & opt bool true & info [ "inline" ]
       ~doc:"Inline the IBTC probe at each site (vs shared routine).")

let miss_policy =
  Arg.(value & opt string "fast" & info [ "miss" ] ~docv:"POLICY"
       ~doc:"IBTC miss policy: fast or full.")

let returns =
  Arg.(value & opt string "retcache" & info [ "returns"; "r" ] ~docv:"POLICY"
       ~doc:"Return handling: as-ib, retcache, shadow or fast.")

let pred =
  Arg.(value & opt int 0 & info [ "pred" ] ~docv:"DEPTH"
       ~doc:"Inline target prediction depth (0-4).")

let no_link =
  Arg.(value & flag & info [ "no-link" ]
       ~doc:"Disable direct-branch fragment linking.")

let traces =
  Arg.(value & flag & info [ "traces" ]
       ~doc:"Superblock formation: translate through direct jumps.")

let ways =
  Arg.(value & opt int 1 & info [ "ways" ] ~docv:"N"
       ~doc:"IBTC associativity (1 or 2).")

let profile_ib =
  Arg.(value & flag & info [ "profile-ib" ]
       ~doc:"Instrument every IB site with an execution counter and print the hottest sites.")

let shepherd =
  Arg.(value & flag & info [ "shepherd" ]
       ~doc:"Enforce a control-flow policy: transfers may only enter the text segment.")

let cfi_name =
  Arg.(value & opt (some string) None & info [ "cfi" ] ~docv:"POLICY"
       ~doc:"CFI enforcement policy layered over the IB mechanism: none, \
             landing_pad (per-fragment entry pads, checks elided on \
             mechanism hit paths), comp:N (N SFI compartments with \
             mediated cross-compartment transfers) or ret (shadow-stack \
             return integrity). Defaults to \\$SDT_CFI or none.")

let trace_steps =
  Arg.(value & opt int 0 & info [ "trace-steps" ] ~docv:"N"
       ~doc:"Single-step the first N instructions, printing a disassembly trace to stderr.")

let dump_frags =
  Arg.(value & flag & info [ "dump-frags" ]
       ~doc:"After the run, dump the fragment map with a disassembly of each fragment's head.")

let show_stats =
  Arg.(value & flag & info [ "stats"; "s" ] ~doc:"Print SDT statistics.")

let max_steps =
  Arg.(value & opt int 2_000_000_000 & info [ "max-steps" ] ~docv:"N"
       ~doc:"Step budget before aborting.")

let trace_file =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
       ~doc:"Write a Chrome trace_event JSON of runtime events (translations, links, IB misses) to FILE; view in Perfetto or chrome://tracing.")

let metrics_file =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
       ~doc:"Sample metrics periodically and write the time series to FILE: CSV, or JSON when FILE ends in .json.")

let profile =
  Arg.(value & flag & info [ "profile" ]
       ~doc:"Attribute cycles to fragments and service code; print the overhead breakdown, hottest fragments, and per-site IB telemetry.")

let sample_interval =
  Arg.(value & opt int 10_000 & info [ "sample-interval" ] ~docv:"N"
       ~doc:"Simulated cycles between metric samples.")

let exec_mode_name =
  Arg.(value & opt string "block" & info [ "exec-mode" ] ~docv:"MODE"
       ~doc:"Interpreter loop: block (chained, default), block-nochain, trace (hot-trace superblocks) or step. Measured results are bit-identical in every mode.")

let introspect_dir =
  Arg.(value & opt (some string) None & info [ "introspect" ] ~docv:"DIR"
       ~doc:"After the run, dump the block interpreter's live chain graph (chain.dot, Graphviz; trace-subsumed blocks marked) and a JSON report (introspect.json) with block-length/chain-depth/trace-length/side-exit-rate histograms, per-trace records, per-IB-site inline-cache hit/miss/entropy counters, and (under a sieve) the bucket-chain histogram, into DIR. Needs a block exec mode.")

let stats_json =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
       ~doc:"Write the run's counters (the --stats block, machine totals, block-cache and mechanism stats) as JSON to FILE. In serve mode, the service report instead.")

let serve_tenants =
  Arg.(value & opt (some string) None & info [ "serve" ] ~docv:"TENANTS"
       ~doc:"Multi-tenant serve mode: run a comma-separated tenant list \
             against one shared bounded fragment store instead of a single \
             program. Each tenant is NAME=PROG[xJOBS] where PROG is a suite \
             workload (sized by --size, or explicitly as WL@N) or \
             micro:SEED, a generated IB microbenchmark; xJOBS submits a \
             stream of JOBS jobs (default 1). Example: \
             --serve a=gzip,b=gzip,m=micro:1x3 --policy fifo --bound 4096.")

let serve_policy =
  Arg.(value & opt string "fifo" & info [ "policy" ] ~docv:"POLICY"
       ~doc:"Serve mode: shared-store eviction policy on overflow — \
             flush-all, fifo or gen (generational).")

let serve_bound =
  Arg.(value & opt int 0 & info [ "bound" ] ~docv:"BYTES"
       ~doc:"Serve mode: shared fragment-store byte bound (0 = unbounded).")

let serve_budget =
  Arg.(value & opt int 0 & info [ "budget" ] ~docv:"BYTES"
       ~doc:"Serve mode: per-tenant published-byte budget (0 = none).")

let no_dedup =
  Arg.(value & flag & info [ "no-dedup" ]
       ~doc:"Serve mode: disable content-keyed cross-tenant fragment dedup \
             (every tenant pays full translation cost and its own store \
             copy).")

let serve_quantum =
  Arg.(value & opt int 50_000 & info [ "quantum" ] ~docv:"CYCLES"
       ~doc:"Serve mode: cycles of service per job per epoch.")

let serve_servers =
  Arg.(value & opt int 2 & info [ "servers" ] ~docv:"N"
       ~doc:"Serve mode: concurrent service slots.")

let serve_schedule =
  Arg.(value & opt string "closed" & info [ "schedule" ] ~docv:"SCHED"
       ~doc:"Serve mode: arrival schedule — closed (each tenant keeps one \
             job in flight) or open:PERIOD (one arrival every PERIOD \
             cycles, round-robin).")

let cmd =
  let doc = "run VIA programs natively or under the software dynamic translator" in
  Cmd.v
    (Cmd.info "via_run" ~doc
       ~exits:
         (Cmd.Exit.info 1
            ~doc:
              "when the guest faults (a bad memory access), breaks the \
               machine (an illegal instruction, the step limit) or the \
               translator, or an output file cannot be written."
         :: Cmd.Exit.info 2
              ~doc:
                "on a bad option value or an unreadable or malformed \
                 input file."
         :: Cmd.Exit.defaults))
    Term.(
      const run $ file $ workload $ size_name $ native $ arch_name $ mech
      $ ibtc_entries $ sieve_buckets $ inline $ miss_policy $ returns $ pred
      $ no_link $ traces $ ways $ profile_ib $ shepherd $ cfi_name $ show_stats
      $ trace_steps $ dump_frags $ max_steps $ trace_file $ metrics_file
      $ profile $ sample_interval $ exec_mode_name $ introspect_dir
      $ stats_json $ serve_tenants $ serve_policy $ serve_bound $ serve_budget
      $ no_dedup $ serve_quantum $ serve_servers $ serve_schedule)

let () = exit (Cmd.eval' cmd)
