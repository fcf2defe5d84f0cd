type config = {
  line_size : int;
  hit_cycles : int;
  miss_cycles : int;
  transfer_cycles : int;
  upgrade_cycles : int;
  ping_pong_burst : int;
}

let default_config =
  { line_size = 32;
    hit_cycles = 1;
    miss_cycles = 30;
    transfer_cycles = 40;
    upgrade_cycles = 12;
    ping_pong_burst = 4;
  }

module Int_table = Mb_sim.Int_table

(* A line's state is packed into one immediate [int] so that the table
   holds no heap blocks and a state transition allocates nothing (a
   [Shared of set] / [Modified of cpu] variant would allocate on every
   transition — there are thousands per benchmark run):

     bit 0 = 0:  shared; bits 1.. are a bitmask of the CPUs holding a
                 clean copy (CPU i -> bit i+1)
     bit 0 = 1:  modified; bits 1.. are the owning CPU's index

   The bitmask caps the model at [Sys.int_size - 1] CPUs — far beyond
   the paper's 4-way Xeon; [create] enforces it. *)
let shared_of_mask mask = mask lsl 1

let modified_of_cpu cpu = (cpu lsl 1) lor 1

let is_modified state = state land 1 = 1

let state_arg state = state asr 1  (* mask (shared) or owner (modified) *)

type t = {
  config : config;
  cpus : int;
  (* Line index -> packed state. Every simulated memory access probes
     this table, so it is the open-addressing [Int_table] (flat arrays,
     no bucket chains) and lookups go through [find_exn], which
     allocates nothing — [find_opt]'s [Some] box would be one
     allocation per access. *)
  lines : int Int_table.t;
  mutable hits : int;
  mutable misses : int;
  mutable transfers : int;
  mutable upgrades : int;
}

let create config ~cpus =
  if config.line_size <= 0 then invalid_arg "Coherence.create: line_size";
  if cpus <= 0 then invalid_arg "Coherence.create: cpus";
  if cpus >= Sys.int_size - 1 then invalid_arg "Coherence.create: too many cpus";
  let nonneg field cycles =
    if cycles < 0 then invalid_arg (Printf.sprintf "Coherence.create: %s < 0" field)
  in
  nonneg "hit_cycles" config.hit_cycles;
  nonneg "miss_cycles" config.miss_cycles;
  nonneg "transfer_cycles" config.transfer_cycles;
  nonneg "upgrade_cycles" config.upgrade_cycles;
  { config; cpus; lines = Int_table.create ~initial:4096 (); hits = 0; misses = 0;
    transfers = 0; upgrades = 0 }

let config t = t.config

let line_of t addr = addr / t.config.line_size

let check_cpu t cpu =
  if cpu < 0 || cpu >= t.cpus then invalid_arg "Coherence: cpu out of range"

let read t ~cpu addr =
  check_cpu t cpu;
  let line = line_of t addr in
  match Int_table.find_exn t.lines line with
  | exception Not_found ->
      t.misses <- t.misses + 1;
      Int_table.set t.lines line (shared_of_mask (1 lsl cpu));
      t.config.miss_cycles
  | state ->
      if is_modified state then begin
        let owner = state_arg state in
        if owner = cpu then begin
          t.hits <- t.hits + 1;
          t.config.hit_cycles
        end
        else begin
          (* Dirty elsewhere: cache-to-cache transfer, both keep clean
             copies. *)
          t.transfers <- t.transfers + 1;
          Int_table.set t.lines line (shared_of_mask ((1 lsl owner) lor (1 lsl cpu)));
          t.config.transfer_cycles
        end
      end
      else begin
        let mask = state_arg state in
        if mask land (1 lsl cpu) <> 0 then begin
          t.hits <- t.hits + 1;
          t.config.hit_cycles
        end
        else begin
          t.misses <- t.misses + 1;
          Int_table.set t.lines line (shared_of_mask (mask lor (1 lsl cpu)));
          t.config.miss_cycles
        end
      end

let write t ~cpu addr =
  check_cpu t cpu;
  let line = line_of t addr in
  match Int_table.find_exn t.lines line with
  | exception Not_found ->
      t.misses <- t.misses + 1;
      Int_table.set t.lines line (modified_of_cpu cpu);
      t.config.miss_cycles
  | state ->
      if is_modified state then begin
        if state_arg state = cpu then begin
          t.hits <- t.hits + 1;
          t.config.hit_cycles
        end
        else begin
          t.transfers <- t.transfers + 1;
          Int_table.set t.lines line (modified_of_cpu cpu);
          t.config.transfer_cycles
        end
      end
      else begin
        let mask = state_arg state in
        Int_table.set t.lines line (modified_of_cpu cpu);
        if mask = 1 lsl cpu then begin
          (* Sole sharer: a silent E->M transition, no bus traffic. *)
          t.hits <- t.hits + 1;
          t.config.hit_cycles
        end
        else begin
          t.upgrades <- t.upgrades + 1;
          t.config.upgrade_cycles
        end
      end

let write_repeated t ~cpu addr ~count =
  check_cpu t cpu;
  if count <= 0 then invalid_arg "Coherence.write_repeated: count <= 0";
  let line = line_of t addr in
  let slow () =
    let first = write t ~cpu addr in
    t.hits <- t.hits + (count - 1);
    first + ((count - 1) * t.config.hit_cycles)
  in
  match Int_table.find_exn t.lines line with
  | state when is_modified state && state_arg state <> cpu ->
      (* The other CPU is writing this line too: sustained ping-pong, one
         ownership transfer per burst of [ping_pong_burst] stores. *)
      let burst = max 1 t.config.ping_pong_burst in
      let transfers = (count + burst - 1) / burst in
      t.transfers <- t.transfers + transfers;
      t.hits <- t.hits + (count - transfers);
      Int_table.set t.lines line (modified_of_cpu cpu);
      (transfers * t.config.transfer_cycles) + ((count - transfers) * t.config.hit_cycles)
  | _ -> slow ()
  | exception Not_found -> slow ()

let flush_line t addr = Int_table.remove t.lines (line_of t addr)

let hits t = t.hits

let misses t = t.misses

let transfers t = t.transfers

let upgrades t = t.upgrades

let invalidations t = t.transfers + t.upgrades
