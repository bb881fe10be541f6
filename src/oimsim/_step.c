/* L steps of oimsim.dynamics._advance in place: numpy's float operations in numpy's
 * order (sparse sums in scipy's csr_matvecs order), so numpy's bits. No FMA. */
#define _GNU_SOURCE
#include <math.h>
#include <stdint.h>

#define TWO_PI (2.0 * 3.141592653589793)

/* phi (n, C); CSR (indptr, indices, data); h (n) or NULL; kdt (n); ks (L, C)
 * used at step k if ks_on[k]; dt_dw (n, C) or NULL; noise (L, n, B) or NULL,
 * shared by the C / B column blocks; work arrays c, s (n, C), ac, as (C). */
void oim_steps(int64_t n, int64_t C, int64_t B, int64_t L, double *restrict phi,
               const int64_t *indptr, const int64_t *indices, const double *data,
               const double *h, const double *kdt, const double *ks, const uint8_t *ks_on,
               const double *dt_dw, const double *noise, double *restrict c,
               double *restrict s, double *restrict ac, double *restrict as)
{
    for (int64_t k = 0; k < L; k++) {
        for (int64_t e = 0; e < n * C; e++)
            sincos(phi[e], &s[e], &c[e]);
        for (int64_t i = 0; i < n; i++) {
            for (int64_t q = 0; q < C; q++)
                ac[q] = as[q] = 0.0;
            for (int64_t jj = indptr[i]; jj < indptr[i + 1]; jj++) {
                const double a = data[jj], *cj = c + indices[jj] * C, *sj = s + indices[jj] * C;
                for (int64_t q = 0; q < C; q++) {
                    ac[q] += a * cj[q];
                    as[q] += a * sj[q];
                }
            }
            for (int64_t q = 0, e = i * C; q < C; q++, e++) {
                double g = s[e] * ac[q] - c[e] * as[q];
                if (h)
                    g += h[i] * s[e];
                g *= kdt[i];
                if (ks_on[k])
                    g += (s[e] * c[e]) * ks[k * C + q];
                double x = phi[e] - g;
                if (dt_dw)
                    x += dt_dw[e];
                if (noise)
                    x += noise[(k * n + i) * B + q % B];
                if (x >= -TWO_PI && x < 2.0 * TWO_PI)  /* dynamics._wrap's fast rule */
                    phi[e] = (x >= TWO_PI ? x - TWO_PI : x < 0.0 ? x + TWO_PI : x) + 0.0;
                else  /* numpy's remainder, as np.mod: also for NaN */
                    phi[e] = (x = fmod(x, TWO_PI)) == 0.0 ? 0.0 : x < 0.0 ? x + TWO_PI : x;
            }
        }
    }
}
