#include "common/detmath.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

#ifdef VARPRED_SIMD_AVX2
#include <immintrin.h>
#endif

// The algorithm, constants and tables are glibc's exp and log (from ARM
// optimized-routines, MIT licence; glibc 2.28 and later): e_exp.c with
// e_exp_data.c and e_log.c with e_log_data.c, as glibc builds them into
// __exp_fma and __log_fma for x86-64. The constants and tables were read
// as hex from __exp_data and __log_data in Debian glibc 2.36's libm.so.6
// (exp data at vaddr 0xaab20, its table at +0x70; log data at 0xab3a0, its
// table at +0x90), and which steps are fused from the disassembly of the
// two functions.

// The scalar twin is written once and always inlined into two copies: one
// compiled for FMA instructions where the target has them, one for the
// baseline (where std::fma is a libm call). Both round each fma exactly, so
// the copies agree; the FMA copy only runs faster, and runs where the CPU
// has FMA. A function pointer picks it: target_clones' ifunc resolver would
// run before the sanitizer runtimes start, and crashes under TSan.
#define VARPRED_INLINE [[gnu::always_inline]] inline
#ifdef VARPRED_SIMD_AVX2
#define VARPRED_FMA_COPY __attribute__((target("fma")))
#else
#define VARPRED_FMA_COPY
#endif

namespace varpred::detmath {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

VARPRED_INLINE std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}
VARPRED_INLINE double from_bits(std::uint64_t b) {
  return std::bit_cast<double>(b);
}

// exp(x) = 2^(k/N) exp(r) with N = 128, x = k ln2/N + r, |r| <= ln2/2N.
constexpr int kExpTableBits = 7;
constexpr std::uint64_t kExpN = 1u << kExpTableBits;
constexpr double kInvLn2N = 0x1.71547652b82fep+7;
constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
constexpr double kExpShift = 0x1.8p+52;
constexpr double kExpC2 = 0x1.ffffffffffdbdp-2;
constexpr double kExpC3 = 0x1.555555555543cp-3;
constexpr double kExpC4 = 0x1.55555cf172b91p-5;
constexpr double kExpC5 = 0x1.1111167a4d017p-7;

// Per j = k mod N: the bits of a tail t with 2^(j/N) ~= s (1 + t), then
// the bits of s minus j << 45.
constexpr std::uint64_t kExpTab[2 * kExpN] = {
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};

// log(x) = k ln2 + log(c) + log1p(z/c - 1) for x = 2^k z with z in
// [0x1.6p-1, 0x1.6p+0), c near the centre of z's subinterval.
constexpr int kLogTableBits = 7;
constexpr std::uint64_t kLogN = 1u << kLogTableBits;
constexpr std::uint64_t kLogOff = 0x3fe6000000000000;
constexpr double kLn2Hi = 0x1.62e42fefa3800p-1;
constexpr double kLn2Lo = 0x1.ef35793c76730p-45;
constexpr double kLogA[5] = {-0x1.0000000000001p-1, 0x1.555555551305bp-2,
                             -0x1.fffffffeb4590p-3, 0x1.999b324f10111p-3,
                             -0x1.55575e506c89fp-3};
// For x in [1 - 2^-4, 1 + 0x1.09p-4), log has a polynomial of its own.
constexpr std::uint64_t kNearOneLo = 0x3fee000000000000;
constexpr std::uint64_t kNearOneHi = 0x3ff1090000000000;
constexpr double kLogB[11] = {
    -0x1.0000000000000p-1, 0x1.5555555555577p-2,  -0x1.ffffffffffdcbp-3,
    0x1.999999995dd0cp-3,  -0x1.55555556745a7p-3, 0x1.24924a344de30p-3,
    -0x1.fffffa4423d65p-4, 0x1.c7184282ad6cap-4,  -0x1.999eb43b068ffp-4,
    0x1.78182f7afd085p-4,  -0x1.5521375d145cdp-4};

// Per subinterval: 1/c and log(c).
struct LogEntry {
  double invc;
  double logc;
};
constexpr LogEntry kLogTab[kLogN] = {
    {0x1.734f0c3e0de9fp+0, -0x1.7cc7f79e69000p-2},
    {0x1.713786a2ce91fp+0, -0x1.76feec20d0000p-2},
    {0x1.6f26008fab5a0p+0, -0x1.713e31351e000p-2},
    {0x1.6d1a61f138c7dp+0, -0x1.6b85b38287800p-2},
    {0x1.6b1490bc5b4d1p+0, -0x1.65d5590807800p-2},
    {0x1.69147332f0cbap+0, -0x1.602d076180000p-2},
    {0x1.6719f18224223p+0, -0x1.5a8ca86909000p-2},
    {0x1.6524f99a51ed9p+0, -0x1.54f4356035000p-2},
    {0x1.63356aa8f24c4p+0, -0x1.4f637c36b4000p-2},
    {0x1.614b36b9ddc14p+0, -0x1.49da7fda85000p-2},
    {0x1.5f66452c65c4cp+0, -0x1.445923989a800p-2},
    {0x1.5d867b5912c4fp+0, -0x1.3edf439b0b800p-2},
    {0x1.5babccb5b90dep+0, -0x1.396ce448f7000p-2},
    {0x1.59d61f2d91a78p+0, -0x1.3401e17bda000p-2},
    {0x1.5805612465687p+0, -0x1.2e9e2ef468000p-2},
    {0x1.56397cee76bd3p+0, -0x1.2941b3830e000p-2},
    {0x1.54725e2a77f93p+0, -0x1.23ec58cda8800p-2},
    {0x1.52aff42064583p+0, -0x1.1e9e129279000p-2},
    {0x1.50f22dbb2bddfp+0, -0x1.1956d2b48f800p-2},
    {0x1.4f38f4734ded7p+0, -0x1.141679ab9f800p-2},
    {0x1.4d843cfde2840p+0, -0x1.0edd094ef9800p-2},
    {0x1.4bd3ec078a3c8p+0, -0x1.09aa518db1000p-2},
    {0x1.4a27fc3e0258ap+0, -0x1.047e65263b800p-2},
    {0x1.4880524d48434p+0, -0x1.feb224586f000p-3},
    {0x1.46dce1b192d0bp+0, -0x1.f474a7517b000p-3},
    {0x1.453d9d3391854p+0, -0x1.ea4443d103000p-3},
    {0x1.43a2744b4845ap+0, -0x1.e020d44e9b000p-3},
    {0x1.420b54115f8fbp+0, -0x1.d60a22977f000p-3},
    {0x1.40782da3ef4b1p+0, -0x1.cc00104959000p-3},
    {0x1.3ee8f5d57fe8fp+0, -0x1.c202956891000p-3},
    {0x1.3d5d9a00b4ce9p+0, -0x1.b81178d811000p-3},
    {0x1.3bd60c010c12bp+0, -0x1.ae2c9ccd3d000p-3},
    {0x1.3a5242b75dab8p+0, -0x1.a45402e129000p-3},
    {0x1.38d22cd9fd002p+0, -0x1.9a877681df000p-3},
    {0x1.3755bc5847a1cp+0, -0x1.90c6d69483000p-3},
    {0x1.35dce49ad36e2p+0, -0x1.87120a645c000p-3},
    {0x1.34679984dd440p+0, -0x1.7d68fb4143000p-3},
    {0x1.32f5cceffcb24p+0, -0x1.73cb83c627000p-3},
    {0x1.3187775a10d49p+0, -0x1.6a39a9b376000p-3},
    {0x1.301c8373e3990p+0, -0x1.60b3154b7a000p-3},
    {0x1.2eb4ebb95f841p+0, -0x1.5737d76243000p-3},
    {0x1.2d50a0219a9d1p+0, -0x1.4dc7b8fc23000p-3},
    {0x1.2bef9a8b7fd2ap+0, -0x1.4462c51d20000p-3},
    {0x1.2a91c7a0c1babp+0, -0x1.3b08abc830000p-3},
    {0x1.293726014b530p+0, -0x1.31b996b490000p-3},
    {0x1.27dfa5757a1f5p+0, -0x1.2875490a44000p-3},
    {0x1.268b39b1d3bbfp+0, -0x1.1f3b9f879a000p-3},
    {0x1.2539d838ff5bdp+0, -0x1.160c8252ca000p-3},
    {0x1.23eb7aac9083bp+0, -0x1.0ce7f57f72000p-3},
    {0x1.22a012ba940b6p+0, -0x1.03cdc49fea000p-3},
    {0x1.2157996cc4132p+0, -0x1.f57bdbc4b8000p-4},
    {0x1.201201dd2fc9bp+0, -0x1.e370896404000p-4},
    {0x1.1ecf4494d480bp+0, -0x1.d17983ef94000p-4},
    {0x1.1d8f5528f6569p+0, -0x1.bf9674ed8a000p-4},
    {0x1.1c52311577e7cp+0, -0x1.adc79202f6000p-4},
    {0x1.1b17c74cb26e9p+0, -0x1.9c0c3e7288000p-4},
    {0x1.19e010c2c1ab6p+0, -0x1.8a646b372c000p-4},
    {0x1.18ab07bb670bdp+0, -0x1.78d01b3ac0000p-4},
    {0x1.1778a25efbcb6p+0, -0x1.674f145380000p-4},
    {0x1.1648d354c31dap+0, -0x1.55e0e6d878000p-4},
    {0x1.151b990275fddp+0, -0x1.4485cdea1e000p-4},
    {0x1.13f0ea432d24cp+0, -0x1.333d94d6aa000p-4},
    {0x1.12c8b7210f9dap+0, -0x1.22079f8c56000p-4},
    {0x1.11a3028ecb531p+0, -0x1.10e4698622000p-4},
    {0x1.107fbda8434afp+0, -0x1.ffa6c6ad20000p-5},
    {0x1.0f5ee0f4e6bb3p+0, -0x1.dda8d4a774000p-5},
    {0x1.0e4065d2a9fcep+0, -0x1.bbcece4850000p-5},
    {0x1.0d244632ca521p+0, -0x1.9a1894012c000p-5},
    {0x1.0c0a77ce2981ap+0, -0x1.788583302c000p-5},
    {0x1.0af2f83c636d1p+0, -0x1.5715e67d68000p-5},
    {0x1.09ddb98a01339p+0, -0x1.35c8a49658000p-5},
    {0x1.08cabaf52e7dfp+0, -0x1.149e364154000p-5},
    {0x1.07b9f2f4e28fbp+0, -0x1.e72c082eb8000p-6},
    {0x1.06ab58c358f19p+0, -0x1.a55f152528000p-6},
    {0x1.059eea5ecf92cp+0, -0x1.63d62cf818000p-6},
    {0x1.04949cdd12c90p+0, -0x1.228fb8caa0000p-6},
    {0x1.038c6c6f0ada9p+0, -0x1.c317b20f90000p-7},
    {0x1.02865137932a9p+0, -0x1.419355daa0000p-7},
    {0x1.0182427ea7348p+0, -0x1.81203c2ec0000p-8},
    {0x1.008040614b195p+0, -0x1.0040979240000p-9},
    {0x1.fe01ff726fa1ap-1, 0x1.feff384900000p-9},
    {0x1.fa11cc261ea74p-1, 0x1.7dc41353d0000p-7},
    {0x1.f6310b081992ep-1, 0x1.3cea3c4c28000p-6},
    {0x1.f25f63ceeadcdp-1, 0x1.b9fc114890000p-6},
    {0x1.ee9c8039113e7p-1, 0x1.1b0d8ce110000p-5},
    {0x1.eae8078cbb1abp-1, 0x1.58a5bd001c000p-5},
    {0x1.e741aa29d0c9bp-1, 0x1.95c8340d88000p-5},
    {0x1.e3a91830a99b5p-1, 0x1.d276aef578000p-5},
    {0x1.e01e009609a56p-1, 0x1.07598e598c000p-4},
    {0x1.dca01e577bb98p-1, 0x1.253f5e30d2000p-4},
    {0x1.d92f20b7c9103p-1, 0x1.42edd8b380000p-4},
    {0x1.d5cac66fb5ccep-1, 0x1.606598757c000p-4},
    {0x1.d272caa5ede9dp-1, 0x1.7da76356a0000p-4},
    {0x1.cf26e3e6b2ccdp-1, 0x1.9ab434e1c6000p-4},
    {0x1.cbe6da2a77902p-1, 0x1.b78c7bb0d6000p-4},
    {0x1.c8b266d37086dp-1, 0x1.d431332e72000p-4},
    {0x1.c5894bd5d5804p-1, 0x1.f0a3171de6000p-4},
    {0x1.c26b533bb9f8cp-1, 0x1.067152b914000p-3},
    {0x1.bf583eeece73fp-1, 0x1.147858292b000p-3},
    {0x1.bc4fd75db96c1p-1, 0x1.2266ecdca3000p-3},
    {0x1.b951e0c864a28p-1, 0x1.303d7a6c55000p-3},
    {0x1.b65e2c5ef3e2cp-1, 0x1.3dfc33c331000p-3},
    {0x1.b374867c9888bp-1, 0x1.4ba366b7a8000p-3},
    {0x1.b094b211d304ap-1, 0x1.5933928d1f000p-3},
    {0x1.adbe885f2ef7ep-1, 0x1.66acd2418f000p-3},
    {0x1.aaf1d31603da2p-1, 0x1.740f8ec669000p-3},
    {0x1.a82e63fd358a7p-1, 0x1.815c0f51af000p-3},
    {0x1.a5740ef09738bp-1, 0x1.8e92954f68000p-3},
    {0x1.a2c2a90ab4b27p-1, 0x1.9bb3602f84000p-3},
    {0x1.a01a01393f2d1p-1, 0x1.a8bed1c2c0000p-3},
    {0x1.9d79f24db3c1bp-1, 0x1.b5b515c01d000p-3},
    {0x1.9ae2505c7b190p-1, 0x1.c2967ccbcc000p-3},
    {0x1.9852ef297ce2fp-1, 0x1.cf635d5486000p-3},
    {0x1.95cbaeea44b75p-1, 0x1.dc1bd3446c000p-3},
    {0x1.934c69de74838p-1, 0x1.e8c01b8cfe000p-3},
    {0x1.90d4f2f6752e6p-1, 0x1.f5509c0179000p-3},
    {0x1.8e6528effd79dp-1, 0x1.00e6c121fb800p-2},
    {0x1.8bfce9fcc007cp-1, 0x1.071b80e93d000p-2},
    {0x1.899c0dabec30ep-1, 0x1.0d46b9e867000p-2},
    {0x1.87427aa2317fbp-1, 0x1.13687334bd000p-2},
    {0x1.84f00acb39a08p-1, 0x1.1980d67234800p-2},
    {0x1.82a49e8653e55p-1, 0x1.1f8ffe0cc8000p-2},
    {0x1.8060195f40260p-1, 0x1.2595fd7636800p-2},
    {0x1.7e22563e0a329p-1, 0x1.2b9300914a800p-2},
    {0x1.7beb377dcb5adp-1, 0x1.3187210436000p-2},
    {0x1.79baa679725c2p-1, 0x1.377266dec1800p-2},
    {0x1.77907f2170657p-1, 0x1.3d54ffbaf3000p-2},
    {0x1.756cadbd6130cp-1, 0x1.432eee32fe000p-2},
};

// glibc's specialcase() for 512 <= |x| < 1024, where the scale's exponent
// overflows or the result is subnormal.
double exp_large(double tmp, std::uint64_t sbits, std::uint64_t ki) {
  if ((ki & 0x80000000) == 0) {
    // k > 0: the exponent of the scale overflowed by at most 460.
    sbits -= 1009ull << 52;
    const double scale = from_bits(sbits);
    return 0x1p1009 * std::fma(scale, tmp, scale);
  }
  // k < 0: round once before scaling into the subnormal range. __exp_fma
  // forms scale * tmp with one multiply and adds it twice, unfused.
  sbits += 1022ull << 52;
  const double scale = from_bits(sbits);
  const double scaled_tmp = scale * tmp;
  double y = scale + scaled_tmp;
  if (y < 1.0) {
    const double lo = scale - y + scaled_tmp;
    const double hi = 1.0 + y;
    y = (1.0 - hi + y + lo + hi) - 1.0;
    if (y == 0.0) y = 0.0;  // never -0.0
  }
  return 0x1p-1022 * y;
}

VARPRED_INLINE double exp_scalar(double x) {
  const std::uint64_t abstop = (bits(x) >> 52) & 0x7ff;
  if (abstop - 0x3c9 >= 0x408 - 0x3c9) {  // outside 2^-54 <= |x| < 512
    if (abstop < 0x3c9) return 1.0 + x;   // 1, without an underflow
    if (abstop >= 0x409) {                // |x| >= 1024, inf or NaN
      if (x == -kInf) return 0.0;
      if (abstop == 0x7ff) return 1.0 + x;
      return bits(x) >> 63 ? 0.0 : kInf;
    }
  }
  const double kd_shifted = std::fma(x, kInvLn2N, kExpShift);
  const std::uint64_t ki = bits(kd_shifted);
  const double kd = kd_shifted - kExpShift;
  const double r = std::fma(kd, kNegLn2LoN, std::fma(kd, kNegLn2HiN, x));
  const std::uint64_t idx = 2 * (ki % kExpN);
  const double tail = from_bits(kExpTab[idx]);
  const std::uint64_t sbits = kExpTab[idx + 1] + (ki << (52 - kExpTableBits));
  const double r2 = r * r;
  const double tmp =
      std::fma(r2 * r2, std::fma(r, kExpC5, kExpC4),
               std::fma(r2, std::fma(r, kExpC3, kExpC2), tail + r));
  if (abstop == 0x408) return exp_large(tmp, sbits, ki);
  const double scale = from_bits(sbits);
  return std::fma(scale, tmp, scale);
}

VARPRED_INLINE double log_near_one(double x) {
  if (x == 1.0) return 0.0;
  const double* const b = kLogB;
  const double r = x - 1.0;
  const double r2 = r * r;
  const double r3 = r * r2;
  const double p1 = std::fma(r2, b[3], std::fma(r, b[2], b[1]));
  const double p2 = std::fma(r2, b[6], std::fma(r, b[5], b[4]));
  const double p3 =
      std::fma(r3, b[10], std::fma(r2, b[9], std::fma(r, b[8], b[7])));
  const double p = std::fma(std::fma(p3, r3, p2), r3, p1);
  // r's high half, whose square is exact.
  const double rhi = std::fma(-0x1p27, r, std::fma(r, 0x1p27, r));
  const double rlo = r - rhi;
  const double rhi2 = rhi * rhi;
  const double hi = std::fma(rhi2, b[0], r);
  double lo = std::fma(rhi2, b[0], r - hi);
  lo = std::fma(b[0] * rlo, rhi + r, lo);
  return hi + std::fma(p, r3, lo);
}

// The bits of a positive normal x.
VARPRED_INLINE double log_main(std::uint64_t ix) {
  const std::uint64_t tmp = ix - kLogOff;
  const std::uint64_t i = (tmp >> (52 - kLogTableBits)) % kLogN;
  const auto k = static_cast<std::int64_t>(tmp) >> 52;
  const double z = from_bits(ix - (tmp & (0xfffull << 52)));
  const double r = std::fma(z, kLogTab[i].invc, -1.0);
  const auto kd = static_cast<double>(k);
  const double w = std::fma(kd, kLn2Hi, kLogTab[i].logc);
  const double hi = w + r;
  const double lo = std::fma(kd, kLn2Lo, w - hi + r);
  const double r2 = r * r;
  const double r3 = r * r2;
  const double poly = std::fma(std::fma(r, kLogA[4], kLogA[3]), r2,
                               std::fma(r, kLogA[2], kLogA[1]));
  return std::fma(r3, poly, std::fma(r2, kLogA[0], lo)) + hi;
}

VARPRED_INLINE double log_scalar(double x) {
  std::uint64_t ix = bits(x);
  if (ix - kNearOneLo < kNearOneHi - kNearOneLo) return log_near_one(x);
  if ((ix >> 48) - 0x0010 >= 0x7ff0 - 0x0010) {  // x <= 0, subnormal, inf, NaN
    if (ix * 2 == 0) return -kInf;
    if (x == kInf) return x;
    if ((ix >> 63) != 0 || (ix >> 52) == 0x7ff) return (x - x) / (x - x);
    ix = bits(x * 0x1p52) - (52ull << 52);  // subnormal: normalise
  }
  return log_main(ix);
}

double log_plain(double x) { return log_scalar(x); }
VARPRED_FMA_COPY double log_fma(double x) { return log_scalar(x); }

void exp_block_plain(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_scalar(x[i]);
}
VARPRED_FMA_COPY void exp_block_fma(const double* x, double* out,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = exp_scalar(x[i]);
}

void log_block_plain(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = log_scalar(x[i]);
}
VARPRED_FMA_COPY void log_block_fma(const double* x, double* out,
                                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = log_scalar(x[i]);
}

bool cpu_has_fma() {
#ifdef VARPRED_SIMD_AVX2
  return __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

}  // namespace

double log(double x) {
  static const auto chosen = cpu_has_fma() ? log_fma : log_plain;
  return chosen(x);
}

namespace detail {

void exp_block_scalar(const double* x, double* out, std::size_t n) {
  static const auto chosen = cpu_has_fma() ? exp_block_fma : exp_block_plain;
  chosen(x, out, n);
}

#ifdef VARPRED_SIMD_AVX2

namespace {

#define VARPRED_AVX2_FMA __attribute__((target("avx2,fma")))

VARPRED_AVX2_FMA __m256d broadcast(double x) { return _mm256_set1_pd(x); }

// x * a + b, fused.
VARPRED_AVX2_FMA __m256d muladd(__m256d x, double a, double b) {
  return _mm256_fmadd_pd(x, broadcast(a), broadcast(b));
}

// exp_scalar's fast path. Returns the lanes it holds (2^-54 <= |x| < 512;
// not NaN) as a bit mask; the others hold garbage.
VARPRED_AVX2_FMA int exp4(__m256d x, __m256d& y) {
  const __m256d shift = broadcast(kExpShift);
  const __m256d kd_shifted = _mm256_fmadd_pd(x, broadcast(kInvLn2N), shift);
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, shift);
  const __m256d r =
      _mm256_fmadd_pd(kd, broadcast(kNegLn2LoN),
                      _mm256_fmadd_pd(kd, broadcast(kNegLn2HiN), x));
  const __m256i idx = _mm256_slli_epi64(
      _mm256_and_si256(ki, _mm256_set1_epi64x(kExpN - 1)), 1);
  const auto* const tab = reinterpret_cast<const long long*>(kExpTab);
  const __m256d tail =
      _mm256_castsi256_pd(_mm256_i64gather_epi64(tab, idx, 8));
  const __m256i sbits =
      _mm256_add_epi64(_mm256_i64gather_epi64(tab + 1, idx, 8),
                       _mm256_slli_epi64(ki, 52 - kExpTableBits));
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d tmp = _mm256_fmadd_pd(
      _mm256_mul_pd(r2, r2),
      muladd(r, kExpC5, kExpC4),
      _mm256_fmadd_pd(
          r2, muladd(r, kExpC3, kExpC2),
          _mm256_add_pd(tail, r)));
  const __m256d scale = _mm256_castsi256_pd(sbits);
  y = _mm256_fmadd_pd(scale, tmp, scale);
  const __m256d ax = _mm256_andnot_pd(broadcast(-0.0), x);
  return _mm256_movemask_pd(
      _mm256_and_pd(_mm256_cmp_pd(ax, broadcast(0x1p-54), _CMP_GE_OQ),
                    _mm256_cmp_pd(ax, broadcast(512.0), _CMP_LT_OQ)));
}

// Four lanes from `in` to `out` (which may be `in`): the vector arm, then
// the scalar twin for the lanes outside its fast path.
VARPRED_AVX2_FMA void exp_step4(const double* in, double* out) {
  const __m256d x = _mm256_loadu_pd(in);
  __m256d y;
  const int fast = exp4(x, y);
  _mm256_storeu_pd(out, y);
  if (fast == 0xf) return;
  double lanes[4];
  _mm256_storeu_pd(lanes, x);
  for (int l = 0; l < 4; ++l) {
    if ((fast >> l & 1) == 0) out[l] = exp_scalar(lanes[l]);
  }
}

}  // namespace

VARPRED_AVX2_FMA void exp_block_avx2(const double* x, double* out,
                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) exp_step4(x + i, out + i);
  if (i == n) return;
  // A short tail runs as one vector padded with 1.0, a fast-path input.
  double tail[4] = {1.0, 1.0, 1.0, 1.0};
  std::copy(x + i, x + n, tail);
  exp_step4(tail, tail);
  std::copy(tail, tail + (n - i), out + i);
}

#undef VARPRED_AVX2_FMA

#endif  // VARPRED_SIMD_AVX2

}  // namespace detail

void exp_block(std::span<const double> x, std::span<double> out) {
  VARPRED_CHECK_ARG(x.size() == out.size(), "exp_block needs equal sizes");
#ifdef VARPRED_SIMD_AVX2
  using BlockFn = void (*)(const double*, double*, std::size_t);
  static const BlockFn chosen =
      avx2_enabled() ? detail::exp_block_avx2 : detail::exp_block_scalar;
  chosen(x.data(), out.data(), x.size());
#else
  detail::exp_block_scalar(x.data(), out.data(), x.size());
#endif
}

void log_block(std::span<const double> x, std::span<double> out) {
  VARPRED_CHECK_ARG(x.size() == out.size(), "log_block needs equal sizes");
  static const auto chosen = cpu_has_fma() ? log_block_fma : log_block_plain;
  chosen(x.data(), out.data(), x.size());
}

}  // namespace varpred::detmath
