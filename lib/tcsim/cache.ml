type geometry = { size_bytes : int; ways : int; line_bytes : int }

let tc16p_icache = { size_bytes = 16 * 1024; ways = 2; line_bytes = 32 }
let tc16p_dcache = { size_bytes = 8 * 1024; ways = 2; line_bytes = 32 }
let tc16e_icache = { size_bytes = 8 * 1024; ways = 2; line_bytes = 32 }

(* Way [w] of set [s] lives at index [s * ways + w] of the flat arrays;
   an invalid way holds tag -1 (real tags are non-negative). *)
type t = {
  geom : geometry;
  ways : int;
  nsets : int;
  line_shift : int; (* log2 line_bytes *)
  set_shift : int; (* log2 nsets *)
  tags : int array;
  dirty : bool array;
  stamps : int array;
  mutable clock : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let create geom =
  if not (is_pow2 geom.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  if geom.ways < 1 || geom.size_bytes < 1 then invalid_arg "Cache.create: bad geometry";
  if geom.size_bytes mod (geom.ways * geom.line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by ways*line";
  let nsets = geom.size_bytes / (geom.ways * geom.line_bytes) in
  if not (is_pow2 nsets) then invalid_arg "Cache.create: set count must be a power of two";
  let n = nsets * geom.ways in
  {
    geom;
    ways = geom.ways;
    nsets;
    line_shift = log2 geom.line_bytes;
    set_shift = log2 nsets;
    tags = Array.make n (-1);
    dirty = Array.make n false;
    stamps = Array.make n 0;
    clock = 0;
    hit_count = 0;
    miss_count = 0;
  }

let hit = -1
let miss = -2

let access c ~addr ~write =
  c.clock <- c.clock + 1;
  let line_addr = addr lsr c.line_shift in
  let set_idx = line_addr land (c.nsets - 1) in
  let tag = line_addr lsr c.set_shift in
  let base = set_idx * c.ways in
  let way = ref 0 in
  while !way < c.ways && c.tags.(base + !way) <> tag do incr way done;
  if !way < c.ways then begin
    let i = base + !way in
    c.stamps.(i) <- c.clock;
    if write then c.dirty.(i) <- true;
    c.hit_count <- c.hit_count + 1;
    hit
  end
  else begin
    c.miss_count <- c.miss_count + 1;
    (* choose victim: first invalid way, else least-recently used *)
    let v = ref base in
    for i = base + 1 to base + c.ways - 1 do
      if c.tags.(!v) >= 0 && (c.tags.(i) < 0 || c.stamps.(i) < c.stamps.(!v)) then
        v := i
    done;
    let v = !v in
    let outcome =
      if c.tags.(v) >= 0 && c.dirty.(v) then
        (* reconstruct the victim's line-aligned address *)
        ((c.tags.(v) lsl c.set_shift) lor set_idx) lsl c.line_shift
      else miss
    in
    c.tags.(v) <- tag;
    c.dirty.(v) <- write;
    c.stamps.(v) <- c.clock;
    outcome
  end

let probe c ~addr =
  let line_addr = addr lsr c.line_shift in
  let base = (line_addr land (c.nsets - 1)) * c.ways in
  let tag = line_addr lsr c.set_shift in
  let rec go w = w < c.ways && (c.tags.(base + w) = tag || go (w + 1)) in
  go 0

let flush c =
  Array.fill c.tags 0 (Array.length c.tags) (-1);
  Array.fill c.dirty 0 (Array.length c.dirty) false;
  Array.fill c.stamps 0 (Array.length c.stamps) 0

let geometry c = c.geom
let hits c = c.hit_count
let misses c = c.miss_count
