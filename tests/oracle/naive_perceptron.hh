/**
 * @file
 * The perceptron predictor as Jiménez & Lin state it ("Dynamic Branch
 * Prediction with Perceptrons", HPCA 2001, Section 3), sharing no
 * code with src/predictors: 2^n rows of a bias weight and h history
 * weights, each a w-bit integer; history inputs of +1/-1, newest
 * first; theta = floor(1.93h + 14). Only the row index, the pc's low
 * word-address bits, is this project's choice.
 */

#ifndef BPSIM_TESTS_ORACLE_NAIVE_PERCEPTRON_HH
#define BPSIM_TESTS_ORACLE_NAIVE_PERCEPTRON_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

namespace oracle
{

struct NaivePerceptron
{
    NaivePerceptron(unsigned n, unsigned h, unsigned w)
        : rows(std::size_t{1} << n, std::vector<int>(h + 1, 0)),
          x(h, -1), theta(static_cast<int>(std::floor(1.93 * h + 14))),
          lo(-(1 << (w - 1))), hi((1 << (w - 1)) - 1)
    {
    }

    std::vector<int> &weights(std::uint64_t pc)
    {
        return rows[(pc >> 2) % rows.size()];
    }

    /** y = w0 + sum of wi * xi for the perceptron at @p pc. */
    int output(std::uint64_t pc)
    {
        const std::vector<int> &w = weights(pc);
        int y = w[0];
        for (std::size_t i = 0; i < x.size(); ++i)
            y += w[i + 1] * x[i];
        return y;
    }

    /** Predicts y >= 0; trains when wrong or when |y| <= theta. */
    bool step(std::uint64_t pc, bool taken)
    {
        const int y = output(pc), t = taken ? 1 : -1;
        if ((y >= 0) != taken || std::abs(y) <= theta) {
            std::vector<int> &w = weights(pc);
            w[0] = std::clamp(w[0] + t, lo, hi);
            for (std::size_t i = 0; i < x.size(); ++i)
                w[i + 1] = std::clamp(w[i + 1] + t * x[i], lo, hi);
        }
        x.insert(x.begin(), t);
        x.pop_back();
        return y >= 0;
    }

    std::vector<std::vector<int>> rows;
    std::vector<int> x;
    int theta, lo, hi;
};

} // namespace oracle

#endif // BPSIM_TESTS_ORACLE_NAIVE_PERCEPTRON_HH
