/* L steps of oimsim.dynamics._steps in place: numpy's float operations in numpy's
 * order (sparse sums in scipy's csr_matvecs order), so numpy's bits. No FMA.
 * Each step calls sincos in phase order, by NB equal bins of [0, 2 pi): glibc's sincos
 * branches on its argument's range and quadrant, and phases near 0, pi and 2 pi taken
 * in storage order cross those cuts at random. Call order changes no bits. */
#define _GNU_SOURCE
#include <math.h>
#include <stdint.h>

#define TWO_PI (2.0 * 3.141592653589793)
#define NB 64

/* Row i's sums over workspace columns [q0, q0 + W), each from 0.0 in CSR order: a
 * fixed-width tile stays in registers across the row's nonzeros. */
#define TILE(W)                                                                  \
    for (; q0 + W <= C2; q0 += W) {                                              \
        double t[W] = {0.0};                                                     \
        for (int64_t jj = lo; jj < hi; jj++) {                                   \
            const double a = data[jj], *wj = w + indices[jj] * C2 + q0;          \
            for (int u = 0; u < W; u++)                                          \
                t[u] += a * wj[u];                                               \
        }                                                                        \
        for (int u = 0; u < W; u++)                                              \
            acc[q0 + u] = t[u];                                                  \
    }

/* kdt = K*dt, one gain for all rows; phi (n, C); CSR (indptr, indices, data); h (n); ks
 * (L, C): 2*Ks*dt per step and column; dt_dw (n, C); z seed-major draws (B, zs): step k
 * adds scale * z[b*zs + base[i] + k*stride[i]] to row i, seed b of all C / B variant
 * blocks; work w (n + 1, 2C): row j is [cos phi_j | sin phi_j], row n a row's sums;
 * scratch (n, C) each: srt the phases in bin order, pos their workspace offsets, key
 * their bins. Every term is added: a term that is off is 0.0, the wrap's + 0.0 exact. */
void oim_steps(int64_t n, int64_t C, int64_t B, int64_t L, int64_t zs, double scale,
               double kdt, double *restrict phi, const int64_t *indptr,
               const int64_t *indices, const double *data, const double *h, const double *ks,
               const double *dt_dw, const double *z,
               const int64_t *base, const int64_t *stride, double *restrict w,
               double *restrict srt, int64_t *restrict pos, uint8_t *restrict key)
{
    const int64_t C2 = 2 * C;
    double *restrict acc = w + n * C2;
    for (int64_t k = 0; k < L; k++) {
        int64_t at[NB + 1] = {0};  /* counting sort; NaN, +-inf, out of range: bin 0 */
        for (int64_t e = 0; e < n * C; e++) {
            const double u = phi[e] * (NB / TWO_PI);
            at[(key[e] = u >= 0.0 && u < NB ? (int)u : 0) + 1]++;
        }
        for (int b = 0; b < NB; b++)
            at[b + 1] += at[b];
        for (int64_t j = 0, e = 0; j < n; j++)
            for (int64_t q = 0; q < C; q++, e++) {
                const int64_t d = at[key[e]]++;
                srt[d] = phi[e];
                pos[d] = j * C2 + q;
            }
        for (int64_t d = 0; d < n * C; d++)
            sincos(srt[d], &w[pos[d] + C], &w[pos[d]]);
        for (int64_t i = 0; i < n; i++) {
            int64_t lo = indptr[i], hi = indptr[i + 1], q0 = 0;
            TILE(8) TILE(4) TILE(2)
            for (int64_t v = 0; v < C; v += B)  /* variant blocks, then seeds */
                for (int64_t b = 0, q = v, e = i * C + v; b < B; b++, q++, e++) {
                    const double c = w[i * C2 + q], s = w[i * C2 + C + q];
                    double g = s * acc[q] - c * acc[C + q];
                    g += h[i] * s;
                    g *= kdt;
                    g += (s * c) * ks[k * C + q];
                    double x = phi[e] - g;
                    x += dt_dw[e];
                    x += scale * z[b * zs + base[i] + k * stride[i]];
                    if (x >= -TWO_PI && x < 2.0 * TWO_PI)  /* dynamics._wrap's fast rule */
                        phi[e] = (x >= TWO_PI ? x - TWO_PI : x < 0.0 ? x + TWO_PI : x) + 0.0;
                    else  /* numpy's remainder, as np.mod: also for NaN */
                        phi[e] = (x = fmod(x, TWO_PI)) == 0.0 ? 0.0 : x < 0.0 ? x + TWO_PI : x;
                }
        }
    }
}
