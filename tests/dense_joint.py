"""The dense m x m matrix of a JointDistribution, for reference computations in tests."""
import numpy as np


def dense_pij(joint) -> np.ndarray:
    """p_ij as an m x m array: the product part np.outer(product_mass * a, b) plus the cells."""
    mat = np.outer(joint.product_mass * joint.a, joint.b)
    mat[joint.rows, joint.cols] += joint.vals
    return mat
