let mask32 v = v land 0xFFFFFFFF
let bit31 v = v land 0x80000000 <> 0
let signed v = if bit31 v then v - 0x100000000 else v

let truncate_width (w : Isa.width) v =
  match w with W8 -> v land 0xFF | W16 -> v land 0xFFFF | W32 -> mask32 v

let sign_extend (w : Isa.width) v =
  match w with
  | W8 -> if v land 0x80 <> 0 then mask32 (v lor 0xFFFFFF00) else v land 0xFF
  | W16 -> if v land 0x8000 <> 0 then mask32 (v lor 0xFFFF0000) else v land 0xFFFF
  | W32 -> mask32 v

let zf_sf res = Flags.make ~cf:false ~zf:(res = 0) ~sf:(bit31 res) ~of_:false

let add_flags a b carry =
  let full = a + b + carry in
  let res = mask32 full in
  let cf = full > 0xFFFFFFFF in
  let of_ = bit31 a = bit31 b && bit31 res <> bit31 a in
  Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_

let sub_flags a b carry =
  let full = a - b - carry in
  let res = mask32 full in
  let cf = full < 0 in
  let of_ = bit31 a <> bit31 b && bit31 res <> bit31 a in
  Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_

let alu_value (op : Isa.alu_op) ~cf_in a b =
  let carry = if cf_in then 1 else 0 in
  match op with
  | Add -> mask32 (a + b)
  | Adc -> mask32 (a + b + carry)
  | Sub -> mask32 (a - b)
  | Sbb -> mask32 (a - b - carry)
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b

let alu_flags (op : Isa.alu_op) ~cf_in a b =
  let carry = if cf_in then 1 else 0 in
  match op with
  | Add -> add_flags a b 0
  | Adc -> add_flags a b carry
  | Sub -> sub_flags a b 0
  | Sbb -> sub_flags a b carry
  | And | Or | Xor -> zf_sf (alu_value op ~cf_in a b)

let alu op ~cf_in a b = (alu_value op ~cf_in a b, alu_flags op ~cf_in a b)

(* INC/DEC preserve CF: recompute the other flags and splice CF back in. *)
let keep_cf flags new_flags = new_flags land lnot Flags.cf_bit lor (flags land Flags.cf_bit)

let inc v ~flags = (mask32 (v + 1), keep_cf flags (add_flags v 1 0))
let dec v ~flags = (mask32 (v - 1), keep_cf flags (sub_flags v 1 0))
let neg v = (mask32 (0 - v), sub_flags 0 v 0)
let not32 v = mask32 (lnot v)

let rotl32 v c = mask32 ((v lsl c) lor (v lsr (32 - c)))
let rotr32 v c = mask32 ((v lsr c) lor (v lsl (32 - c)))

let shift_value (op : Isa.shift_op) v ~count =
  let c = count land 31 in
  if c = 0 then v
  else
    match op with
    | Shl -> mask32 (v lsl c)
    | Shr -> v lsr c
    | Sar -> mask32 (signed v asr c)
    | Rol -> rotl32 v c
    | Ror -> rotr32 v c

let shift_flags (op : Isa.shift_op) v ~count ~flags =
  let c = count land 31 in
  if c = 0 then flags
  else begin
    let res = shift_value op v ~count in
    let cf =
      match op with
      | Shl -> v land (1 lsl (32 - c)) <> 0
      | Shr | Sar -> v land (1 lsl (c - 1)) <> 0
      | Rol -> res land 1 <> 0
      | Ror -> bit31 res
    in
    let of_ =
      match op with
      | Shl | Rol -> bit31 res <> cf
      | Shr -> bit31 v
      | Sar | Ror -> false
    in
    Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_
  end

let shift op v ~count ~flags = (shift_value op v ~count, shift_flags op v ~count ~flags)

let mul_u a b =
  let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
  let lo = mask32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL)) in
  let hi = mask32 (Int64.to_int (Int64.shift_right_logical p 32)) in
  let wide = hi <> 0 in
  (lo, hi, Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

let mul_s a b =
  let p = Int64.mul (Int64.of_int (signed a)) (Int64.of_int (signed b)) in
  let lo = mask32 (Int64.to_int (Int64.logand p 0xFFFFFFFFL)) in
  let hi = mask32 (Int64.to_int (Int64.shift_right_logical p 32)) in
  let wide = p <> Int64.of_int (signed lo) in
  (lo, hi, Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

let imul2 a b =
  let lo, _, f = mul_s a b in
  (lo, f)

let div_u ~hi ~lo d =
  if d = 0 then (0xFFFFFFFF, lo)
  else begin
    let full =
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    in
    let d64 = Int64.of_int d in
    let q = Int64.unsigned_div full d64 and r = Int64.unsigned_rem full d64 in
    (mask32 (Int64.to_int q), mask32 (Int64.to_int r))
  end

let div_s ~hi ~lo d =
  if d = 0 then (0xFFFFFFFF, lo)
  else begin
    let full =
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    in
    let d64 = Int64.of_int (signed d) in
    let q = Int64.div full d64 and r = Int64.rem full d64 in
    (mask32 (Int64.to_int q), mask32 (Int64.to_int r))
  end

let fp_bin (op : Isa.fp_bin) a b =
  match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b

let fp_un (op : Isa.fp_un) a =
  match op with
  | Fsqrt -> sqrt a
  | Fsin -> sin a
  | Fcos -> cos a
  | Fabs -> abs_float a
  | Fchs -> -.a

let fcmp_flags a b =
  if Float.is_nan a || Float.is_nan b then
    Flags.make ~cf:true ~zf:true ~sf:false ~of_:false
  else if a < b then Flags.make ~cf:true ~zf:false ~sf:false ~of_:false
  else if a = b then Flags.make ~cf:false ~zf:true ~sf:false ~of_:false
  else Flags.make ~cf:false ~zf:false ~sf:false ~of_:false

let f2i x =
  if Float.is_nan x || x >= 2147483648.0 || x < -2147483648.0 then 0x80000000
  else mask32 (int_of_float x)

let i2f v = float_of_int (signed v)
